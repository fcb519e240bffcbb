//! Typed values.
//!
//! The engine supports the value types that deep-web forms actually query
//! over (paper §4.1): integers (years, mileage), money (prices, stored as
//! cents so ordering is exact), text, dates and US zip codes. There is
//! deliberately no float column type — every numeric form input in the
//! simulated web is integral, which keeps `Ord`/`Eq` total and index keys
//! exact.

use std::fmt;

/// A calendar date (validated on construction).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Date {
    /// Year, e.g. 2008.
    pub year: u16,
    /// Month 1-12.
    pub month: u8,
    /// Day 1-31 (not month-aware beyond 31; the generator emits valid days).
    pub day: u8,
}

impl Date {
    /// Construct a date; returns `None` if out of range.
    pub fn new(year: u16, month: u8, day: u8) -> Option<Date> {
        if (1..=12).contains(&month) && (1..=31).contains(&day) {
            Some(Date { year, month, day })
        } else {
            None
        }
    }

    /// Parse `YYYY-MM-DD`.
    pub fn parse(s: &str) -> Option<Date> {
        let mut it = s.split('-');
        let y = it.next()?.parse().ok()?;
        let m = it.next()?.parse().ok()?;
        let d = it.next()?.parse().ok()?;
        if it.next().is_some() {
            return None;
        }
        Date::new(y, m, d)
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// The type of a column.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ValueType {
    /// 64-bit integer (years, mileage, counts).
    Int,
    /// Money in integral cents.
    Money,
    /// Free text (tokenised for keyword predicates).
    Text,
    /// Calendar date.
    Date,
    /// 5-digit US zip code.
    Zip,
}

/// A typed value.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Value {
    /// Integer value.
    Int(i64),
    /// Money in cents.
    Money(i64),
    /// Text value.
    Text(String),
    /// Date value.
    Date(Date),
    /// Zip code, normalised to 5 ASCII digits.
    Zip(String),
}

impl Value {
    /// The value's type.
    pub(crate) fn value_type(&self) -> ValueType {
        match self {
            Value::Int(_) => ValueType::Int,
            Value::Money(_) => ValueType::Money,
            Value::Text(_) => ValueType::Text,
            Value::Date(_) => ValueType::Date,
            Value::Zip(_) => ValueType::Zip,
        }
    }

    /// Render the value the way a site would print it on a result page.
    pub fn render(&self) -> String {
        match self {
            Value::Int(v) => v.to_string(),
            Value::Money(cents) => format!("${}", cents / 100),
            Value::Text(s) => s.clone(),
            Value::Date(d) => d.to_string(),
            Value::Zip(z) => z.clone(),
        }
    }

    /// Parse a user-supplied string as a value of `ty` (what a site's CGI
    /// layer does with a query parameter). Returns `None` when the string is
    /// not a valid literal of that type.
    pub fn parse_as(ty: ValueType, s: &str) -> Option<Value> {
        let s = s.trim();
        match ty {
            ValueType::Int => s.parse::<i64>().ok().map(Value::Int),
            ValueType::Money => {
                let raw = s.strip_prefix('$').unwrap_or(s).replace(',', "");
                raw.parse::<i64>().ok().map(|d| Value::Money(d * 100))
            }
            ValueType::Text => {
                if s.is_empty() {
                    None
                } else {
                    Some(Value::Text(s.to_string()))
                }
            }
            ValueType::Date => Date::parse(s).map(Value::Date),
            ValueType::Zip => {
                if s.len() == 5 && s.bytes().all(|b| b.is_ascii_digit()) {
                    Some(Value::Zip(s.to_string()))
                } else {
                    None
                }
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_validation_and_parse() {
        assert!(Date::new(2008, 13, 1).is_none());
        assert!(Date::new(2008, 0, 1).is_none());
        assert_eq!(Date::parse("2008-06-15"), Date::new(2008, 6, 15));
        assert!(Date::parse("2008-6").is_none());
        assert!(Date::parse("2008-06-15-9").is_none());
    }

    #[test]
    fn date_ordering() {
        let a = Date::new(2007, 12, 31).unwrap();
        let b = Date::new(2008, 1, 1).unwrap();
        assert!(a < b);
    }

    #[test]
    fn parse_as_money_accepts_dollar_and_commas() {
        assert_eq!(
            Value::parse_as(ValueType::Money, "$1,500"),
            Some(Value::Money(150_000))
        );
        assert_eq!(
            Value::parse_as(ValueType::Money, "200"),
            Some(Value::Money(20_000))
        );
        assert!(Value::parse_as(ValueType::Money, "abc").is_none());
    }

    #[test]
    fn parse_as_zip_strict() {
        assert_eq!(
            Value::parse_as(ValueType::Zip, "94043"),
            Some(Value::Zip("94043".into()))
        );
        assert!(Value::parse_as(ValueType::Zip, "9404").is_none());
        assert!(Value::parse_as(ValueType::Zip, "94o43").is_none());
    }

    #[test]
    fn render_money_in_dollars() {
        assert_eq!(Value::Money(150_000).render(), "$1500");
        assert_eq!(Value::Int(-3).render(), "-3");
    }

    #[test]
    fn value_ordering_within_type() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Money(100) < Value::Money(200));
        assert!(Value::Text("a".into()) < Value::Text("b".into()));
    }
}
