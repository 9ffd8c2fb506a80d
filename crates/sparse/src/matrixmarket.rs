//! Minimal MatrixMarket (`.mtx`) coordinate-format reader and writer.
//!
//! Only the subset needed here is supported: `matrix coordinate
//! real|pattern|integer symmetric|general`.  General matrices are
//! symmetrised on read (the paper uses the pattern of `|A| + |Aᵀ| + I`), so
//! any coordinate `.mtx` file can be used as an input to the assembly-tree
//! pipeline in place of the synthetic generators.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read};

use crate::pattern::{SparsePattern, MAX_DIMENSION};

/// Errors raised while parsing a MatrixMarket file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixMarketError {
    /// The header line is missing or malformed.
    BadHeader(String),
    /// The format is valid MatrixMarket but not supported (e.g. dense array
    /// format or complex values).
    Unsupported(String),
    /// The size line or an entry line could not be parsed.
    BadLine { line_number: usize, content: String },
    /// An index is outside the declared dimensions.
    IndexOutOfRange {
        line_number: usize,
        row: usize,
        col: usize,
    },
    /// A declared dimension exceeds [`MAX_DIMENSION`].
    DimensionTooLarge {
        line_number: usize,
        dimension: usize,
    },
    /// Fewer entries than announced.
    UnexpectedEof,
    /// Underlying I/O failure.
    Io(String),
}

impl std::fmt::Display for MatrixMarketError {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatrixMarketError::BadHeader(line) => write!(fmt, "bad MatrixMarket header: {line}"),
            MatrixMarketError::Unsupported(what) => {
                write!(fmt, "unsupported MatrixMarket variant: {what}")
            }
            MatrixMarketError::BadLine {
                line_number,
                content,
            } => {
                write!(fmt, "cannot parse line {line_number}: {content}")
            }
            MatrixMarketError::IndexOutOfRange {
                line_number,
                row,
                col,
            } => {
                write!(
                    fmt,
                    "index ({row}, {col}) out of range at line {line_number}"
                )
            }
            MatrixMarketError::DimensionTooLarge {
                line_number,
                dimension,
            } => {
                write!(
                    fmt,
                    "dimension {dimension} at line {line_number} exceeds the maximum {MAX_DIMENSION}"
                )
            }
            MatrixMarketError::UnexpectedEof => write!(fmt, "fewer entries than announced"),
            MatrixMarketError::Io(err) => write!(fmt, "I/O error: {err}"),
        }
    }
}

impl std::error::Error for MatrixMarketError {}

/// Parse a MatrixMarket coordinate file into a symmetric [`SparsePattern`]
/// (values, if present, are ignored; the pattern is symmetrised).  A
/// declared dimension beyond [`MAX_DIMENSION`] is refused on its line,
/// before any entry is read.
pub fn read_pattern<R: Read>(reader: R) -> Result<SparsePattern, MatrixMarketError> {
    let reader = BufReader::new(reader);
    let mut lines = reader.lines().enumerate();

    // Header.
    let (_, header) = lines
        .next()
        .ok_or_else(|| MatrixMarketError::BadHeader(String::new()))
        .map(|(i, l)| (i, l.map_err(|e| MatrixMarketError::Io(e.to_string()))))?;
    let header = header?;
    let tokens: Vec<String> = header
        .split_whitespace()
        .map(|t| t.to_ascii_lowercase())
        .collect();
    if tokens.len() < 4 || tokens[0] != "%%matrixmarket" || tokens[1] != "matrix" {
        return Err(MatrixMarketError::BadHeader(header));
    }
    if tokens[2] != "coordinate" {
        return Err(MatrixMarketError::Unsupported(format!(
            "format '{}'",
            tokens[2]
        )));
    }
    if !matches!(tokens[3].as_str(), "real" | "pattern" | "integer") {
        return Err(MatrixMarketError::Unsupported(format!(
            "field '{}'",
            tokens[3]
        )));
    }
    let has_values = tokens[3] != "pattern";

    // Size line (skipping comments).
    let mut size_line = None;
    for (line_number, line) in lines.by_ref() {
        let line = line.map_err(|e| MatrixMarketError::Io(e.to_string()))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        size_line = Some((line_number, trimmed.to_string()));
        break;
    }
    let (size_line_number, size_line) = size_line.ok_or(MatrixMarketError::UnexpectedEof)?;
    let sizes: Vec<usize> = size_line
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    if sizes.len() != 3 {
        return Err(MatrixMarketError::BadLine {
            line_number: size_line_number + 1,
            content: size_line,
        });
    }
    let (rows, cols, nnz) = (sizes[0], sizes[1], sizes[2]);
    let n = rows.max(cols);
    if n > MAX_DIMENSION {
        return Err(MatrixMarketError::DimensionTooLarge {
            line_number: size_line_number + 1,
            dimension: n,
        });
    }

    // Grown from the entries actually read: the announced count comes from
    // the file, and reserving it would let one size line abort the process
    // on allocation.
    let mut edges = Vec::new();
    let mut seen = 0usize;
    for (line_number, line) in lines {
        if seen == nnz {
            break;
        }
        let line = line.map_err(|e| MatrixMarketError::Io(e.to_string()))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let mut fields = trimmed.split_whitespace();
        let row: usize = fields.next().and_then(|t| t.parse().ok()).ok_or_else(|| {
            MatrixMarketError::BadLine {
                line_number: line_number + 1,
                content: trimmed.to_string(),
            }
        })?;
        let col: usize = fields.next().and_then(|t| t.parse().ok()).ok_or_else(|| {
            MatrixMarketError::BadLine {
                line_number: line_number + 1,
                content: trimmed.to_string(),
            }
        })?;
        if has_values && fields.next().is_none() {
            return Err(MatrixMarketError::BadLine {
                line_number: line_number + 1,
                content: trimmed.to_string(),
            });
        }
        if row == 0 || col == 0 || row > n || col > n {
            return Err(MatrixMarketError::IndexOutOfRange {
                line_number: line_number + 1,
                row,
                col,
            });
        }
        edges.push((row - 1, col - 1));
        seen += 1;
    }
    if seen != nnz {
        return Err(MatrixMarketError::UnexpectedEof);
    }
    Ok(SparsePattern::from_edges(n, &edges).expect("the dimension was checked on the size line"))
}

/// Serialise a pattern as a MatrixMarket `pattern symmetric` coordinate file
/// (lower triangle plus the implicit unit diagonal).
pub fn write_pattern(pattern: &SparsePattern) -> String {
    let mut out = String::new();
    let lower: Vec<(usize, usize)> = (0..pattern.n())
        .flat_map(|j| {
            pattern
                .neighbors(j)
                .iter()
                .map(|&i| i as usize)
                .filter(move |&i| i > j)
                .map(move |i| (i, j))
        })
        .collect();
    let _ = writeln!(out, "%%MatrixMarket matrix coordinate pattern symmetric");
    let _ = writeln!(out, "% written by sparsemat");
    let _ = writeln!(
        out,
        "{} {} {}",
        pattern.n(),
        pattern.n(),
        lower.len() + pattern.n()
    );
    for j in 0..pattern.n() {
        let _ = writeln!(out, "{} {}", j + 1, j + 1);
    }
    for (i, j) in lower {
        let _ = writeln!(out, "{} {}", i + 1, j + 1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::grid2d_5pt;

    #[test]
    fn roundtrip_through_matrix_market() {
        let pattern = grid2d_5pt(4, 3);
        let text = write_pattern(&pattern);
        let parsed = read_pattern(text.as_bytes()).unwrap();
        assert_eq!(parsed, pattern);
    }

    #[test]
    fn reads_general_real_files_and_symmetrises() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\
                    3 3 4\n\
                    1 1 2.0\n\
                    2 1 -1.0\n\
                    1 3 0.5\n\
                    3 3 4.0\n";
        let pattern = read_pattern(text.as_bytes()).unwrap();
        assert_eq!(pattern.n(), 3);
        assert_eq!(pattern.neighbors(0), &[1, 2]);
        assert!(pattern.is_symmetric());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(matches!(
            read_pattern("not a header\n".as_bytes()),
            Err(MatrixMarketError::BadHeader(_))
        ));
        assert!(matches!(
            read_pattern("%%MatrixMarket matrix array real general\n2 2\n1.0\n".as_bytes()),
            Err(MatrixMarketError::Unsupported(_))
        ));
        let missing = "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 1 1.0\n";
        assert_eq!(
            read_pattern(missing.as_bytes()),
            Err(MatrixMarketError::UnexpectedEof)
        );
        let out_of_range = "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n5 1\n";
        assert!(matches!(
            read_pattern(out_of_range.as_bytes()),
            Err(MatrixMarketError::IndexOutOfRange { .. })
        ));
    }

    /// A size line announcing ~10¹⁷ entries is a claim, not a reservation:
    /// the file ends after one entry, so the reader reports the shortfall.
    #[test]
    fn a_huge_announced_entry_count_is_an_unexpected_eof() {
        let file =
            "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 99999999999999999\n1 1\n";
        assert_eq!(
            read_pattern(file.as_bytes()),
            Err(MatrixMarketError::UnexpectedEof)
        );
    }

    /// A declared dimension beyond the `u32` index range is refused before
    /// `SparsePattern::from_edges` tries to allocate a row pointer per index.
    #[test]
    fn a_huge_declared_dimension_is_refused() {
        let file = "%%MatrixMarket matrix coordinate pattern symmetric
                    99999999999999 99999999999999 1
                    1 1
";
        assert_eq!(
            read_pattern(file.as_bytes()),
            Err(MatrixMarketError::DimensionTooLarge {
                line_number: 2,
                dimension: 99_999_999_999_999,
            })
        );
    }
}
