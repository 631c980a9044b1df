use std::error::Error;
use std::fmt;

/// Errors from VO administration operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VoError {
    /// A member was added with a role the VO has not defined.
    UnknownRole(String),
    /// The identity is already a member.
    DuplicateMember(String),
    /// The identity is not a member.
    NotAMember(String),
    /// A rule template failed to parse.
    BadRuleTemplate(String),
}

impl fmt::Display for VoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VoError::UnknownRole(role) => write!(f, "role {role:?} is not defined in this VO"),
            VoError::DuplicateMember(dn) => write!(f, "{dn} is already a VO member"),
            VoError::NotAMember(dn) => write!(f, "{dn} is not a VO member"),
            VoError::BadRuleTemplate(msg) => write!(f, "bad rule template: {msg}"),
        }
    }
}

impl Error for VoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(VoError::UnknownRole("admin".into()).to_string().contains("admin"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<VoError>();
    }
}
