//! A tiny CSV writer for windowed time series (the `Sample` export).

/// Builds a CSV document with a fixed header row.
#[derive(Debug, Clone)]
pub struct Csv {
    columns: usize,
    out: String,
}

impl Csv {
    /// Creates a CSV with the given header columns.
    pub fn new(columns: &[&str]) -> Self {
        let mut out = String::new();
        out.push_str(&columns.join(","));
        out.push('\n');
        Csv {
            columns: columns.len(),
            out,
        }
    }

    /// Appends one row. Fields containing commas, quotes, or newlines
    /// are quoted per RFC 4180.
    ///
    /// # Panics
    /// If the field count does not match the header.
    pub fn row(&mut self, fields: &[String]) {
        assert_eq!(
            fields.len(),
            self.columns,
            "csv row has {} fields, header has {}",
            fields.len(),
            self.columns
        );
        for (i, f) in fields.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            if f.contains([',', '"', '\n']) {
                self.out.push('"');
                self.out.push_str(&f.replace('"', "\"\""));
                self.out.push('"');
            } else {
                self.out.push_str(f);
            }
        }
        self.out.push('\n');
    }

    /// Finishes and returns the document.
    pub fn render(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_and_rows() {
        let mut c = Csv::new(&["window", "cpi", "label"]);
        c.row(&["1".to_string(), "0.91".to_string(), "plain".to_string()]);
        c.row(&[
            "2".to_string(),
            "1.05".to_string(),
            "has,comma \"q\"".to_string(),
        ]);
        assert_eq!(
            c.render(),
            "window,cpi,label\n1,0.91,plain\n2,1.05,\"has,comma \"\"q\"\"\"\n"
        );
    }

    #[test]
    #[should_panic(expected = "csv row has 1 fields")]
    fn wrong_arity_panics() {
        let mut c = Csv::new(&["a", "b"]);
        c.row(&["x".to_string()]);
    }
}
