//! SSH leg of the ZGrab phase: identification-string exchange only.

use super::{L7Detail, L7Outcome, SshSoftware};
use originscan_wire::{client_ident_line, ServerIdent};

/// The client identification line (same bytes for every connection).
pub(super) fn request() -> Vec<u8> {
    client_ident_line()
}

/// Parse the server identification string.
pub(crate) fn parse(bytes: &[u8]) -> L7Outcome {
    match ServerIdent::parse(bytes) {
        Ok(ident) => {
            let software = if ident.is_openssh() {
                SshSoftware::OpenSsh
            } else if ident.software.starts_with("dropbear") {
                SshSoftware::Dropbear
            } else {
                SshSoftware::Other
            };
            L7Outcome::Success(L7Detail::Ssh { software })
        }
        Err(_) => L7Outcome::ProtocolError,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_is_ident_line() {
        assert!(request().starts_with(b"SSH-2.0-"));
    }

    #[test]
    fn classifies_software() {
        match parse(b"SSH-2.0-OpenSSH_7.9p1 Ubuntu\r\n") {
            L7Outcome::Success(L7Detail::Ssh { software }) => {
                assert_eq!(software, SshSoftware::OpenSsh)
            }
            other => panic!("{other:?}"),
        }
        match parse(b"SSH-2.0-dropbear_2019.78\r\n") {
            L7Outcome::Success(L7Detail::Ssh { software }) => {
                assert_eq!(software, SshSoftware::Dropbear)
            }
            other => panic!("{other:?}"),
        }
        match parse(b"SSH-2.0-Cisco-1.25\r\n") {
            L7Outcome::Success(L7Detail::Ssh { software }) => {
                assert_eq!(software, SshSoftware::Other)
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn banner_noise_is_protocol_error() {
        assert_eq!(parse(b"220 ftp ready\r\n"), L7Outcome::ProtocolError);
    }
}
