//! The typed query language and its canonical plan form.
//!
//! A query is one line of `kind key=value ...` text — trivially
//! embeddable in a URL query string, a POST body, or a shell pipeline:
//!
//! ```text
//! coverage  proto=HTTP trial=0 origins=0,1,2
//! union     proto=HTTP trial=0 origins=0,3
//! diff      proto=HTTP trial=0 a=0 b=1
//! exclusive proto=HTTP trial=0 origin=2
//! best-k    proto=HTTP trial=0 k=2
//! rank      proto=HTTP trial=0 origin=1 addr=65536
//! member    proto=HTTP trial=0 origin=1 addr=65536
//! ```
//!
//! Parsing produces a [`Query`] value; [`Query::canonical`] renders it
//! back in a normalized spelling (fixed field order, origin lists sorted
//! and de-duplicated), so two textual spellings of the same plan share
//! one cache slot. The engine keys memoization and cache shards on
//! [`fnv1a64`] of the canonical form.

use crate::error::QueryError;
use std::fmt::Write as _;

/// One parsed, validated query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// Union coverage of a set of origins against the `(proto, trial)`
    /// universe (the union of every stored origin).
    Coverage {
        /// Protocol label.
        proto: String,
        /// Trial index.
        trial: u8,
        /// Origin indices (canonicalized: sorted, de-duplicated).
        origins: Vec<u16>,
    },
    /// Cardinality of the union of a set of origins.
    Union {
        /// Protocol label.
        proto: String,
        /// Trial index.
        trial: u8,
        /// Origin indices (canonicalized: sorted, de-duplicated).
        origins: Vec<u16>,
    },
    /// Set difference between two origins: what each saw that the other
    /// missed, and what both saw.
    Diff {
        /// Protocol label.
        proto: String,
        /// Trial index.
        trial: u8,
        /// Left origin.
        a: u16,
        /// Right origin.
        b: u16,
    },
    /// Hosts only this origin saw (its set minus the union of every
    /// other stored origin).
    Exclusive {
        /// Protocol label.
        proto: String,
        /// Trial index.
        trial: u8,
        /// The origin whose exclusive hosts are counted.
        origin: u16,
    },
    /// The best-covering k-subset of the stored origins — the paper's
    /// "which 2–3 origins recover 99 % coverage?" as a first-class query.
    BestK {
        /// Protocol label.
        proto: String,
        /// Trial index.
        trial: u8,
        /// Subset size.
        k: usize,
    },
    /// Number of members of one origin's set that are ≤ `addr`.
    Rank {
        /// Protocol label.
        proto: String,
        /// Trial index.
        trial: u8,
        /// Origin index.
        origin: u16,
        /// The address to rank.
        addr: u32,
    },
    /// Membership of `addr` in one origin's set.
    Member {
        /// Protocol label.
        proto: String,
        /// Trial index.
        trial: u8,
        /// Origin index.
        origin: u16,
        /// The address to test.
        addr: u32,
    },
    /// Recall of a registered target plan against the union of a set of
    /// origins: what fraction of the stored responsive population the
    /// plan's /24 allowlist still admits.
    Recall {
        /// Protocol label.
        proto: String,
        /// Trial index.
        trial: u8,
        /// Origin indices (canonicalized: sorted, de-duplicated).
        origins: Vec<u16>,
        /// Name of a plan registered with the engine.
        plan: String,
    },
}

/// A parsed `key=value` field list with consume-tracking, so unknown
/// fields can be rejected with their name.
struct Fields<'a> {
    entries: Vec<(&'a str, &'a str, bool)>,
}

impl<'a> Fields<'a> {
    fn parse(parts: &[&'a str]) -> Result<Fields<'a>, QueryError> {
        let mut entries = Vec::with_capacity(parts.len());
        for p in parts {
            let Some((k, v)) = p.split_once('=') else {
                return Err(QueryError::Parse {
                    detail: format!("`{p}` is not a key=value field"),
                });
            };
            if k.is_empty() || v.is_empty() {
                return Err(QueryError::Parse {
                    detail: format!("`{p}` has an empty key or value"),
                });
            }
            if entries.iter().any(|&(ek, _, _)| ek == k) {
                return Err(QueryError::Parse {
                    detail: format!("field `{k}` given twice"),
                });
            }
            entries.push((k, v, false));
        }
        Ok(Fields { entries })
    }

    fn take(&mut self, field: &'static str) -> Result<&'a str, QueryError> {
        for e in &mut self.entries {
            if e.0 == field {
                e.2 = true;
                return Ok(e.1);
            }
        }
        Err(QueryError::MissingField { field })
    }

    fn finish(self) -> Result<(), QueryError> {
        for (k, _, used) in self.entries {
            if !used {
                return Err(QueryError::Parse {
                    detail: format!("unknown field `{k}`"),
                });
            }
        }
        Ok(())
    }
}

fn parse_u8(field: &'static str, v: &str) -> Result<u8, QueryError> {
    v.parse().map_err(|_| QueryError::BadField {
        field,
        detail: format!("`{v}` is not an integer in 0..=255"),
    })
}

fn parse_u16(field: &'static str, v: &str) -> Result<u16, QueryError> {
    v.parse().map_err(|_| QueryError::BadField {
        field,
        detail: format!("`{v}` is not an integer in 0..=65535"),
    })
}

fn parse_u32(field: &'static str, v: &str) -> Result<u32, QueryError> {
    v.parse().map_err(|_| QueryError::BadField {
        field,
        detail: format!("`{v}` is not a u32 address"),
    })
}

fn parse_origins(v: &str) -> Result<Vec<u16>, QueryError> {
    let mut out = Vec::new();
    for piece in v.split(',') {
        out.push(parse_u16("origins", piece)?);
    }
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

fn parse_plan_name(v: &str) -> Result<String, QueryError> {
    if v.len() > 255
        || !v
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
    {
        return Err(QueryError::BadField {
            field: "plan",
            detail: format!("`{v}` is not a plan name (alphanumeric/-/_, ≤255 bytes)"),
        });
    }
    Ok(v.to_string())
}

fn parse_proto(v: &str) -> Result<String, QueryError> {
    if v.len() > 255 || !v.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-') {
        return Err(QueryError::BadField {
            field: "proto",
            detail: format!("`{v}` is not a protocol label (alphanumeric, ≤255 bytes)"),
        });
    }
    Ok(v.to_string())
}

impl Query {
    /// Parse one line of query text.
    pub fn parse(text: &str) -> Result<Query, QueryError> {
        let mut parts = text.split_ascii_whitespace();
        let Some(kind) = parts.next() else {
            return Err(QueryError::Parse {
                detail: "empty query".to_string(),
            });
        };
        let rest: Vec<&str> = parts.collect();
        let mut f = Fields::parse(&rest)?;
        let q = match kind {
            "coverage" | "union" => {
                let proto = parse_proto(f.take("proto")?)?;
                let trial = parse_u8("trial", f.take("trial")?)?;
                let origins = parse_origins(f.take("origins")?)?;
                if kind == "coverage" {
                    Query::Coverage {
                        proto,
                        trial,
                        origins,
                    }
                } else {
                    Query::Union {
                        proto,
                        trial,
                        origins,
                    }
                }
            }
            "diff" => {
                let proto = parse_proto(f.take("proto")?)?;
                let trial = parse_u8("trial", f.take("trial")?)?;
                let a = parse_u16("a", f.take("a")?)?;
                let b = parse_u16("b", f.take("b")?)?;
                if a == b {
                    return Err(QueryError::BadField {
                        field: "b",
                        detail: "diff needs two distinct origins".to_string(),
                    });
                }
                Query::Diff { proto, trial, a, b }
            }
            "exclusive" => Query::Exclusive {
                proto: parse_proto(f.take("proto")?)?,
                trial: parse_u8("trial", f.take("trial")?)?,
                origin: parse_u16("origin", f.take("origin")?)?,
            },
            "best-k" => {
                let proto = parse_proto(f.take("proto")?)?;
                let trial = parse_u8("trial", f.take("trial")?)?;
                let k = usize::from(parse_u16("k", f.take("k")?)?);
                if k == 0 {
                    return Err(QueryError::BadField {
                        field: "k",
                        detail: "k must be at least 1".to_string(),
                    });
                }
                Query::BestK { proto, trial, k }
            }
            "rank" | "member" => {
                let proto = parse_proto(f.take("proto")?)?;
                let trial = parse_u8("trial", f.take("trial")?)?;
                let origin = parse_u16("origin", f.take("origin")?)?;
                let addr = parse_u32("addr", f.take("addr")?)?;
                if kind == "rank" {
                    Query::Rank {
                        proto,
                        trial,
                        origin,
                        addr,
                    }
                } else {
                    Query::Member {
                        proto,
                        trial,
                        origin,
                        addr,
                    }
                }
            }
            "recall" => Query::Recall {
                proto: parse_proto(f.take("proto")?)?,
                trial: parse_u8("trial", f.take("trial")?)?,
                origins: parse_origins(f.take("origins")?)?,
                plan: parse_plan_name(f.take("plan")?)?,
            },
            other => {
                return Err(QueryError::UnknownQuery {
                    name: other.to_string(),
                })
            }
        };
        f.finish()?;
        Ok(q)
    }

    /// The stable query-kind name (also the JSON `kind` field).
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Query::Coverage { .. } => "coverage",
            Query::Union { .. } => "union",
            Query::Diff { .. } => "diff",
            Query::Exclusive { .. } => "exclusive",
            Query::BestK { .. } => "best-k",
            Query::Rank { .. } => "rank",
            Query::Member { .. } => "member",
            Query::Recall { .. } => "recall",
        }
    }

    /// The protocol label this query targets — a probe-module name,
    /// checked against the registry before any store lookup.
    pub(crate) fn proto(&self) -> &str {
        match self {
            Query::Coverage { proto, .. }
            | Query::Union { proto, .. }
            | Query::Diff { proto, .. }
            | Query::Exclusive { proto, .. }
            | Query::BestK { proto, .. }
            | Query::Rank { proto, .. }
            | Query::Member { proto, .. }
            | Query::Recall { proto, .. } => proto,
        }
    }

    /// The canonical spelling: fixed field order, origins sorted and
    /// de-duplicated. Two spellings of the same plan canonicalize
    /// identically, so they share one memo slot.
    pub fn canonical(&self) -> String {
        let mut s = String::new();
        match self {
            Query::Coverage {
                proto,
                trial,
                origins,
            }
            | Query::Union {
                proto,
                trial,
                origins,
            } => {
                let _ = write!(s, "{} proto={proto} trial={trial} origins=", self.kind());
                for (i, o) in origins.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "{o}");
                }
            }
            Query::Diff { proto, trial, a, b } => {
                // a/b order matters (only_a vs only_b), so it is preserved.
                let _ = write!(s, "diff proto={proto} trial={trial} a={a} b={b}");
            }
            Query::Exclusive {
                proto,
                trial,
                origin,
            } => {
                let _ = write!(s, "exclusive proto={proto} trial={trial} origin={origin}");
            }
            Query::BestK { proto, trial, k } => {
                let _ = write!(s, "best-k proto={proto} trial={trial} k={k}");
            }
            Query::Rank {
                proto,
                trial,
                origin,
                addr,
            } => {
                let _ = write!(
                    s,
                    "rank proto={proto} trial={trial} origin={origin} addr={addr}"
                );
            }
            Query::Member {
                proto,
                trial,
                origin,
                addr,
            } => {
                let _ = write!(
                    s,
                    "member proto={proto} trial={trial} origin={origin} addr={addr}"
                );
            }
            Query::Recall {
                proto,
                trial,
                origins,
                plan,
            } => {
                let _ = write!(s, "recall proto={proto} trial={trial} origins=");
                for (i, o) in origins.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "{o}");
                }
                let _ = write!(s, " plan={plan}");
            }
        }
        s
    }
}

/// FNV-1a 64-bit over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
impl Query {
    /// FNV-1a 64 hash of the canonical form, as the engine keys it.
    pub(crate) fn plan_hash(&self) -> u64 {
        fnv1a64(self.canonical().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_kind() {
        let cases = [
            "coverage proto=HTTP trial=0 origins=0,1,2",
            "union proto=HTTP trial=1 origins=3",
            "diff proto=SSH trial=0 a=0 b=1",
            "exclusive proto=HTTP trial=0 origin=2",
            "best-k proto=HTTP trial=0 k=2",
            "rank proto=HTTP trial=0 origin=1 addr=65536",
            "member proto=HTTP trial=0 origin=1 addr=65536",
            "recall proto=HTTP trial=0 origins=0,1 plan=observed",
        ];
        for c in cases {
            let q = Query::parse(c).unwrap_or_else(|e| panic!("{c}: {e}"));
            assert_eq!(q.canonical(), c, "already-canonical text round-trips");
            let again = Query::parse(&q.canonical()).unwrap();
            assert_eq!(q, again);
        }
    }

    #[test]
    fn canonicalization_normalizes_spelling() {
        let a = Query::parse("coverage proto=HTTP trial=0 origins=2,0,1,1").unwrap();
        let b = Query::parse("coverage  origins=0,1,2  trial=0  proto=HTTP").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.canonical(), "coverage proto=HTTP trial=0 origins=0,1,2");
        assert_eq!(a.plan_hash(), b.plan_hash());
    }

    #[test]
    fn rejects_malformed_queries() {
        let bad = [
            ("", "parse"),
            ("   ", "parse"),
            ("frobnicate proto=HTTP", "unknown-query"),
            ("coverage trial=0 origins=0", "missing-field"),
            ("coverage proto=HTTP trial=0 origins=0 proto=SSH", "parse"),
            ("coverage proto=HTTP trial=0 origins=x", "bad-field"),
            ("coverage proto=HTTP trial=999 origins=0", "bad-field"),
            ("coverage proto=HTTP trial=0 origins=0 extra=1", "parse"),
            ("coverage proto=H T trial=0 origins=0", "parse"),
            ("coverage proto=a/b trial=0 origins=0", "bad-field"),
            ("diff proto=HTTP trial=0 a=1 b=1", "bad-field"),
            ("best-k proto=HTTP trial=0 k=0", "bad-field"),
            ("rank proto=HTTP trial=0 origin=0 addr=nope", "bad-field"),
            ("member proto=HTTP trial=0 origin=0", "missing-field"),
            ("recall proto=HTTP trial=0 origins=0", "missing-field"),
            ("recall proto=HTTP trial=0 origins=0 plan=a/b", "bad-field"),
        ];
        for (text, kind) in bad {
            let e = Query::parse(text).expect_err(text);
            assert_eq!(e.kind(), kind, "{text}: {e}");
        }
    }

    #[test]
    fn diff_preserves_operand_order() {
        let ab = Query::parse("diff proto=HTTP trial=0 a=0 b=1").unwrap();
        let ba = Query::parse("diff proto=HTTP trial=0 a=1 b=0").unwrap();
        assert_ne!(ab.canonical(), ba.canonical());
        assert_ne!(ab.plan_hash(), ba.plan_hash());
    }

    #[test]
    fn fnv_is_the_reference_function() {
        // Reference vectors for FNV-1a 64.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
