//! Typed errors for the query engine and its HTTP front end.
//!
//! Every failure a query can hit — unparsable text, unknown keys, a
//! corrupted store chunk — surfaces as a [`QueryError`] value that maps
//! onto a deterministic JSON error body and an HTTP status code. The
//! server never panics on bad input and never leaks an `io::Error`
//! string into a response body (socket errors are connection-fatal, not
//! response-visible).

use originscan_store::StoreError;
use std::fmt;

/// Why a query could not be answered.
#[derive(Debug)]
pub enum QueryError {
    /// The query text did not parse.
    Parse {
        /// What was wrong with it.
        detail: String,
    },
    /// The first word named no known query kind.
    UnknownQuery {
        /// The unrecognized kind.
        name: String,
    },
    /// A required `key=value` field was missing.
    MissingField {
        /// The missing field name.
        field: &'static str,
    },
    /// A field was present but unusable.
    BadField {
        /// The offending field name.
        field: &'static str,
        /// What was wrong with its value.
        detail: String,
    },
    /// The `proto=` label names no registered probe module. Distinct
    /// from [`QueryError::NoOrigins`]: an unknown *name* is a client
    /// error (400), while a known module with an empty store is an
    /// empty *result* (404).
    UnknownProtocol {
        /// The unrecognized protocol label.
        name: String,
    },
    /// The store holds no entry for the requested key.
    KeyNotFound {
        /// Display form of the missing `(protocol, trial, origin)`.
        key: String,
    },
    /// No origins exist for the requested `(protocol, trial)`.
    NoOrigins {
        /// Protocol label.
        proto: String,
        /// Trial index.
        trial: u8,
    },
    /// `best-k` asked for more origins than the store holds.
    BadK {
        /// Requested subset size.
        k: usize,
        /// Origins available for the `(protocol, trial)`.
        available: usize,
    },
    /// More origins are stored under one `(protocol, trial)` than a
    /// membership mask has bits, so its set-operation queries cannot be
    /// answered.
    TooManyOrigins {
        /// Protocol label.
        proto: String,
        /// Trial index.
        trial: u8,
        /// Origins stored for the `(protocol, trial)`.
        stored: usize,
    },
    /// `recall` named a target plan the engine has not registered.
    UnknownPlan {
        /// The unrecognized plan name.
        name: String,
    },
    /// The store itself failed (corruption, truncation, I/O).
    Store(StoreError),
}

impl QueryError {
    /// Stable machine-readable error kind (the `error` field of the JSON
    /// error body).
    pub fn kind(&self) -> &'static str {
        match self {
            QueryError::Parse { .. } => "parse",
            QueryError::UnknownQuery { .. } => "unknown-query",
            QueryError::MissingField { .. } => "missing-field",
            QueryError::BadField { .. } => "bad-field",
            QueryError::UnknownProtocol { .. } => "unknown-protocol",
            QueryError::KeyNotFound { .. } => "key-not-found",
            QueryError::NoOrigins { .. } => "no-origins",
            QueryError::BadK { .. } => "bad-k",
            QueryError::TooManyOrigins { .. } => "too-many-origins",
            QueryError::UnknownPlan { .. } => "unknown-plan",
            QueryError::Store(_) => "store",
        }
    }

    /// The HTTP status the server answers with: 400 for malformed
    /// queries, 404 for keys the store does not hold, 500 for store
    /// failures and stores the engine cannot serve.
    pub fn http_status(&self) -> u16 {
        match self {
            QueryError::Parse { .. }
            | QueryError::UnknownQuery { .. }
            | QueryError::MissingField { .. }
            | QueryError::BadField { .. }
            | QueryError::UnknownProtocol { .. }
            | QueryError::BadK { .. } => 400,
            QueryError::KeyNotFound { .. }
            | QueryError::NoOrigins { .. }
            | QueryError::UnknownPlan { .. } => 404,
            QueryError::TooManyOrigins { .. } | QueryError::Store(_) => 500,
        }
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse { detail } => write!(f, "query does not parse: {detail}"),
            QueryError::UnknownQuery { name } => write!(f, "unknown query kind `{name}`"),
            QueryError::MissingField { field } => write!(f, "missing required field `{field}`"),
            QueryError::BadField { field, detail } => write!(f, "bad field `{field}`: {detail}"),
            QueryError::UnknownProtocol { name } => {
                write!(f, "unknown protocol `{name}`: no registered probe module")
            }
            QueryError::KeyNotFound { key } => write!(f, "no stored scan set for {key}"),
            QueryError::NoOrigins { proto, trial } => {
                write!(f, "no origins stored for {proto}/trial{trial}")
            }
            QueryError::BadK { k, available } => {
                write!(f, "best-k of {k} exceeds the {available} stored origins")
            }
            QueryError::TooManyOrigins {
                proto,
                trial,
                stored,
            } => write!(
                f,
                "{stored} origins stored for {proto}/trial{trial}; set queries serve at most 64"
            ),
            QueryError::UnknownPlan { name } => {
                write!(f, "unknown plan `{name}`: no target plan registered")
            }
            QueryError::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for QueryError {
    fn from(e: StoreError) -> Self {
        // A key miss inside the store keeps its 404 identity instead of
        // collapsing into a generic 500.
        match e {
            StoreError::KeyNotFound { key } => QueryError::KeyNotFound { key },
            other => QueryError::Store(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use originscan_store::frame::FrameError;

    #[test]
    fn kinds_statuses_and_messages() {
        let cases: Vec<(QueryError, &str, u16)> = vec![
            (
                QueryError::Parse {
                    detail: "empty".into(),
                },
                "parse",
                400,
            ),
            (
                QueryError::UnknownQuery {
                    name: "frobnicate".into(),
                },
                "unknown-query",
                400,
            ),
            (
                QueryError::MissingField { field: "proto" },
                "missing-field",
                400,
            ),
            (
                QueryError::BadField {
                    field: "k",
                    detail: "not a number".into(),
                },
                "bad-field",
                400,
            ),
            (
                QueryError::UnknownProtocol {
                    name: "GOPHER".into(),
                },
                "unknown-protocol",
                400,
            ),
            (
                QueryError::KeyNotFound {
                    key: "HTTP/trial0/origin9".into(),
                },
                "key-not-found",
                404,
            ),
            (
                QueryError::NoOrigins {
                    proto: "SSH".into(),
                    trial: 3,
                },
                "no-origins",
                404,
            ),
            (QueryError::BadK { k: 9, available: 4 }, "bad-k", 400),
            (
                QueryError::TooManyOrigins {
                    proto: "HTTP".into(),
                    trial: 0,
                    stored: 65,
                },
                "too-many-origins",
                500,
            ),
            (
                QueryError::UnknownPlan {
                    name: "observed".into(),
                },
                "unknown-plan",
                404,
            ),
            (
                QueryError::Store(StoreError::Frame(FrameError::UnsupportedVersion {
                    found: 7,
                    supported: 1,
                })),
                "store",
                500,
            ),
        ];
        for (e, kind, status) in cases {
            assert_eq!(e.kind(), kind);
            assert_eq!(e.http_status(), status);
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn store_key_miss_stays_a_404() {
        let e = QueryError::from(StoreError::KeyNotFound {
            key: "HTTP/trial0/origin7".into(),
        });
        assert_eq!(e.http_status(), 404);
        assert_eq!(e.kind(), "key-not-found");
    }
}
