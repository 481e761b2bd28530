"""Exception types shared across the package."""


class SmbError(Exception):
    """Base class for package errors."""


class InvalidOutcome(SmbError):
    """Market outcome violates a structural requirement (e.g. non-zero-sum transfers)."""


class TooLarge(SmbError):
    """Instance exceeds the guard of an exact/brute-force solver."""


class NoAlternative(SmbError):
    """No matching other than the given one exists."""


class ProtocolViolation(SmbError):
    """Feedback does not line up with the submitted matching."""


class InvalidContext(SmbError):
    """Agent context lies outside the unit ball."""


class ConfigError(SmbError):
    """Invalid experiment configuration."""


class UncertifiedDuals(SmbError):
    """Dual prices fail feasibility or complementary slackness: the matching is not optimal."""
