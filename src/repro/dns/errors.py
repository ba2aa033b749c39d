"""Exception hierarchy for the DNS substrate."""


class DNSError(Exception):
    """Base class for all DNS errors."""


class NameError_(DNSError):
    """A domain name was malformed (too long, bad label, ...)."""


class MessageError(DNSError):
    """A DNS message could not be encoded or decoded."""


class ValidationError(DNSError):
    """DNSSEC validation failed."""
