"""Shared error base, and the rejections more than one module raises.

Every typed domain rejection in the library derives from DomainError, so the
CLI can distinguish "the mathematics said no" (exit 1) from malformed input
(exit 2) without enumerating exception classes.
"""


class DomainError(Exception):
    pass


class InternalInconsistency(DomainError):
    """A cross-check that must hold for valid data failed."""


class SequenceTooShort(DomainError):
    """A value sequence does not reach an index the computation needs: a
    genus produced by gluing (`statespaces`), or a surface value
    (`frobenius`)."""
