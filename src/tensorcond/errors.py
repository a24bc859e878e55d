"""Exception types, and the document-field readers that raise InputError."""


class TensorCondError(Exception):
    """Base class for all package errors."""


class PreconditionError(TensorCondError, ValueError):
    """A call's stated condition does not hold: an invalid group or chain, a
    non-character, a character that is not symplectic or rational, a model
    that is not a p-group or not shared, inconsistent global data, a family
    parameter that is not a valid unit.  The message names the condition."""


class TableComputationError(TensorCondError, RuntimeError):
    """A table's build or certificate failed: a defect at the first table prime."""


class CorpusError(TensorCondError, ValueError):
    """Corpus file is malformed or has an unknown version."""


class InputError(TensorCondError, ValueError):
    """Malformed CLI input document or flag (exit code 2)."""


# -- document fields: corpus files, suite documents and the CLI's documents are
# read through these; ``where`` is the path of the enclosing object, such as
# "entries[2].chains[1]."


class reading:
    """``with reading(name):`` relabels a TensorCondError raised in its body
    as ``InputError(f"{name}: {err}")``, naming the field or flag read (a
    class: cheaper to enter than a generator context manager)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, kind, err, tb):
        if isinstance(err, TensorCondError):
            raise InputError(f"{self.name}: {err}") from err


def require(doc, key: str, where: str = ""):
    """doc[key], or an InputError naming the field."""
    if not isinstance(doc, dict):
        raise InputError(f"{where.rstrip('.') or 'document'}: expected a JSON object")
    if key not in doc:
        raise InputError(f"missing field '{where}{key}'")
    return doc[key]


def is_int(value) -> bool:
    """An integer that is not a boolean (JSON true and false are not numbers)."""
    return isinstance(value, int) and not isinstance(value, bool)


# The size policy: a document integer has at most MAX_INT_BITS bits, far
# above the 82 bits of PRIME_LIMIT, so any result formed from it prints.
MAX_INT_BITS = 256


def shown(value) -> str:
    """repr(value), but an integer of d > 20 digits as "<d digits>" (signed),
    a string of n > 40 characters as "<string of n characters>", and any
    other value (a JSON list or object) whose repr is longer than 40
    characters as its type and length, such as "<list of 3000 items>"."""
    if isinstance(value, str) and len(value) > 40:
        return f"<string of {len(value)} characters>"
    text = repr(value)
    digits = len(text.lstrip("-"))
    if is_int(value) and digits > 20:
        return f"{'-' * (value < 0)}<{digits} digits>"
    return f"<{type(value).__name__} of {len(value)} items>" if len(text) > 40 else text


def sized(value: int, name: str) -> int:
    """value, or an InputError naming the field if it is over MAX_INT_BITS bits."""
    if value.bit_length() > MAX_INT_BITS:
        raise InputError(f"{name} is {shown(value)}, more than {MAX_INT_BITS} bits")
    return value


def int_field(doc, key: str, where: str = "") -> int:
    value = require(doc, key, where)
    if not is_int(value):
        raise InputError(f"'{where}{key}' must be an integer, not {shown(value)}")
    return sized(value, where + key)


def generator_lists(value, name: str) -> list:
    if not isinstance(value, list) or not all(
            isinstance(gens, list) and all(map(is_int, gens)) for gens in value):
        raise InputError(f"'{name}' must be a list of generator lists (lists "
                         f"of element indices), not {shown(value)}")
    return value
