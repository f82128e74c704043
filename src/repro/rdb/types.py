"""SQL type system.

Each type knows how to validate/coerce a Python value on the way into
storage and how to render itself in DDL.  The set matches what the ER
mapping layer emits: INTEGER, FLOAT, VARCHAR(n), TEXT, BOOLEAN, DATE.
"""

from __future__ import annotations

import datetime
import re

from repro.errors import SchemaError, TypeMismatchError


class SqlType:
    """Base class; concrete types override :meth:`coerce` and ``ddl``."""

    name = "ANY"
    #: exact Python types whose values ``=`` compares with a stored
    #: non-NULL value of this type without raising, agreeing with
    #: Python's ``==`` (so an index probe finds exactly the matches)
    comparable_types: tuple = ()

    def ddl(self) -> str:
        return self.name

    def coerce(self, value):
        """Validate/convert ``value``; None always passes (NULL)."""
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.ddl() == other.ddl()

    def __hash__(self) -> int:
        return hash(self.ddl())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return self.ddl()


class IntegerType(SqlType):
    name = "INTEGER"
    comparable_types = (int, float)

    def coerce(self, value):
        if value is None:
            return None
        if isinstance(value, bool):
            raise TypeMismatchError(f"boolean {value!r} is not an INTEGER")
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, str):
            try:
                return int(value, 10)
            except ValueError:
                pass
        raise TypeMismatchError(f"{value!r} is not an INTEGER")


class FloatType(SqlType):
    name = "FLOAT"
    comparable_types = (int, float)

    def coerce(self, value):
        if value is None:
            return None
        if isinstance(value, bool):
            raise TypeMismatchError(f"boolean {value!r} is not a FLOAT")
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError:
                pass
        raise TypeMismatchError(f"{value!r} is not a FLOAT")


class VarcharType(SqlType):
    name = "VARCHAR"
    comparable_types = (str,)

    def __init__(self, length: int):
        if length <= 0:
            raise SchemaError("VARCHAR length must be positive")
        self.length = length

    def ddl(self) -> str:
        return f"VARCHAR({self.length})"

    def coerce(self, value):
        if value is None:
            return None
        if not isinstance(value, str):
            value = str(value)
        if len(value) > self.length:
            raise TypeMismatchError(
                f"string of length {len(value)} exceeds VARCHAR({self.length})"
            )
        return value


class TextType(SqlType):
    name = "TEXT"
    comparable_types = (str,)

    def coerce(self, value):
        if value is None:
            return None
        return value if isinstance(value, str) else str(value)


class BooleanType(SqlType):
    name = "BOOLEAN"
    comparable_types = (bool,)

    def coerce(self, value):
        if value is None:
            return None
        if isinstance(value, bool):
            return value
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
        if isinstance(value, str) and value.lower() in ("true", "false"):
            return value.lower() == "true"
        raise TypeMismatchError(f"{value!r} is not a BOOLEAN")


class DateType(SqlType):
    name = "DATE"
    comparable_types = (datetime.date,)

    def coerce(self, value):
        if value is None:
            return None
        if isinstance(value, datetime.datetime):
            return value.date()
        if isinstance(value, datetime.date):
            return value
        if isinstance(value, str):
            try:
                return datetime.date.fromisoformat(value)
            except ValueError:
                pass
        raise TypeMismatchError(f"{value!r} is not a DATE (expected ISO yyyy-mm-dd)")


_VARCHAR_DDL = re.compile(r"^VARCHAR\s*\(\s*(\d+)\s*\)$", re.IGNORECASE)

_SIMPLE_TYPES: dict[str, type[SqlType]] = {
    "INTEGER": IntegerType,
    "INT": IntegerType,
    "BIGINT": IntegerType,
    "FLOAT": FloatType,
    "REAL": FloatType,
    "DOUBLE": FloatType,
    "TEXT": TextType,
    "CLOB": TextType,
    "BOOLEAN": BooleanType,
    "BOOL": BooleanType,
    "DATE": DateType,
}


def type_from_name(ddl_name: str) -> SqlType:
    """Parse a DDL type name (``INTEGER``, ``VARCHAR(40)``...) to a type.

    Raises :class:`~repro.errors.SchemaError` for unknown names.
    """
    text = ddl_name.strip()
    match = _VARCHAR_DDL.match(text)
    if match:
        return VarcharType(int(match.group(1)))
    cls = _SIMPLE_TYPES.get(text.upper())
    if cls is None:
        raise SchemaError(f"unknown SQL type {ddl_name!r}")
    return cls()
