//! Just enough JSON to read `BENCHMARK.json`, a result line and a trace
//! file (the build is offline: no serde).

#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn get(&self, key: &str) -> &Value {
        match self {
            Value::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key '{key}'")),
            other => panic!("'{key}' looked up in non-object {other:?}"),
        }
    }

    pub fn keys(&self) -> Vec<&str> {
        match self {
            Value::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("keys of non-object {other:?}"),
        }
    }

    pub fn items(&self) -> &[Value] {
        match self {
            Value::Arr(items) => items,
            other => panic!("items of non-array {other:?}"),
        }
    }

    pub fn str(&self) -> &str {
        match self {
            Value::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    pub fn num(&self) -> f64 {
        match self {
            Value::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
}

pub fn parse(text: &str) -> Value {
    let mut p = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let v = p.value();
    p.space();
    assert_eq!(p.at, p.bytes.len(), "trailing bytes after JSON value");
    v
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn space(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        self.space();
        let hit = self.bytes.get(self.at) == Some(&byte);
        self.at += hit as usize;
        hit
    }

    fn expect(&mut self, byte: u8) {
        assert!(
            self.eat(byte),
            "expected '{}' at byte {}",
            byte as char,
            self.at
        );
    }

    fn literal(&mut self, word: &str, v: Value) -> Value {
        assert!(
            self.bytes[self.at..].starts_with(word.as_bytes()),
            "bad literal at byte {}",
            self.at
        );
        self.at += word.len();
        v
    }

    fn string(&mut self) -> String {
        self.expect(b'"');
        let mut out = Vec::new();
        loop {
            let b = self.bytes[self.at];
            self.at += 1;
            match b {
                b'"' => return String::from_utf8(out).expect("utf-8 string"),
                b'\\' => {
                    let escaped = self.bytes[self.at];
                    self.at += 1;
                    out.push(match escaped {
                        b'n' => b'\n',
                        b't' => b'\t',
                        other => other,
                    });
                }
                other => out.push(other),
            }
        }
    }

    fn value(&mut self) -> Value {
        self.space();
        match self.bytes[self.at] {
            b'{' => {
                self.at += 1;
                let mut fields = Vec::new();
                if !self.eat(b'}') {
                    loop {
                        self.space();
                        let key = self.string();
                        self.expect(b':');
                        fields.push((key, self.value()));
                        if !self.eat(b',') {
                            self.expect(b'}');
                            break;
                        }
                    }
                }
                Value::Obj(fields)
            }
            b'[' => {
                self.at += 1;
                let mut items = Vec::new();
                if !self.eat(b']') {
                    loop {
                        items.push(self.value());
                        if !self.eat(b',') {
                            self.expect(b']');
                            break;
                        }
                    }
                }
                Value::Arr(items)
            }
            b'"' => Value::Str(self.string()),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            _ => {
                let start = self.at;
                while self.at < self.bytes.len()
                    && matches!(
                        self.bytes[self.at],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ascii");
                Value::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number '{text}'")),
                )
            }
        }
    }
}
