"""Line-oriented text format for model instances.

A file declares a conductor, an action, and three 4x4 matrices of cyclotomic
literals:

    conductor = 8
    order = 8
    swap = true
    weights = 0, 2, 4, 6
    exponents = 0, 1, 4

    [matrix.1]
    1, 0, 0, 0
    0, z, 0, 0
    0, 0, z^2, 0
    0, 0, 0, z^3
    ...

Literals follow the cyclotomic grammar (`1/2*z^3 - 2`), where z is zeta_N
for the declared conductor N.  Serialization is canonical: parsing then
serializing is byte-idempotent.

The entries are built in the field their literals generate with the action,
not in Q(zeta_N).  Each distinct entry text is read once, into its terms.
Let g be the gcd of N and every exponent of z in the three matrices, and
M = lcm(N/g, gcd(N, order)).  M divides N, and N/M divides every exponent,
so each entry is built directly in Q(zeta_M) through
zeta_N^e = zeta_M^(e*M/N), the embedding of `Cyclotomic.lift`.  This is
exact: Q(zeta_M) is a subfield of Q(zeta_N) under that embedding, so every
equality, rank, kernel, pencil and Groebner answer is computed on the same
elements under the same embedding, in phi(M) coordinates instead of phi(N).
The mod-p certificate of `groebner` may now pick its prime p = 1 mod a
smaller conductor; its soundness argument holds for any such p, and the
answers it leads to do not change.  When N divides the order, M = N, so a
file whose conductor is its order keeps its field and its prime.
`Instance.conductor` stays the declared N, and serialization lifts every
entry back to Q(zeta_N).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd, lcm

from .action import ActionSpec, validate_action
from .cyclotomic import LiteralError, _excerpt, _fold_terms, _literal_terms, \
    format_cyclotomic
from .model import InputError, ModelTriple, model_from_matrices, validate_model


class ParseError(InputError):
    """An InputError at a line of an instance file (line 0: the whole file)."""

    def __init__(self, line: int, message: str, code: str = "syntax"):
        super().__init__(code, "line %d: %s" % (line, message))
        self.line = line


@dataclass(frozen=True)
class Instance:
    model: ModelTriple
    spec: ActionSpec
    conductor: int
    declared_exponents: tuple | None = None


# Largest working field Q(zeta_m), m = lcm(conductor, order), accepted: the
# cost of exact arithmetic in Q(zeta_m) grows quickly with phi(m).
_MAX_FIELD = 1024

_SCALAR_KEYS = ("conductor", "order", "swap", "weights", "weights2", "exponents")

# The base-10 text int() reads: sign, digits, single underscores, blanks.
_INTEGER = re.compile(r"\s*([+-]?)(\d+(?:_\d+)*)\s*")


def read_integer(text: str):
    """The integer a text names, read as int() reads it, or None.  Every bound
    is at most 10^100, so only the first 102 significant digits are kept: the
    text stays above the bound and int() never sees more than 4300 digits."""
    match = _INTEGER.fullmatch(text)
    if match is None:
        return None
    digits = match.group(2).replace("_", "").lstrip("0") or "0"
    return int(match.group(1) + digits[:102])


def read_ints(text: str, key: str) -> tuple:
    """The integers of a comma-separated value: four for weights and
    weights2, three for exponents."""
    count = 3 if key == "exponents" else 4
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        values = ()
    if len(values) != count:
        raise InputError("bad-exponents" if count == 3 else "bad-weights",
                         "%s wants %s integers, got %r"
                         % (key, "three" if count == 3 else "four", _excerpt(text)))
    return values


def check_field(conductor: int, order: int) -> None:
    """Refuse a working field Q(zeta_m), m = lcm(conductor, order), above
    _MAX_FIELD.  An order below 1 passes, for ActionSpec to refuse."""
    if order > 0 and lcm(conductor, order) > _MAX_FIELD:
        raise InputError("conductor-too-large", "working field lcm(conductor, order) "
                         "is above the limit %d" % _MAX_FIELD)


def _at(line: int, read, *args):
    """read(*args), its InputError raised again as a ParseError at the line."""
    try:
        return read(*args)
    except InputError as exc:
        raise ParseError(line, str(exc), exc.code)


def parse_instance(text: str) -> Instance:
    """The instance a file's text declares, or a ParseError at its first bad
    line.  Each distinct entry text is read once, at its first line, and folded
    once the field is known: equal entries share one immutable Cyclotomic."""
    fields: dict = {}
    matrices: dict = {}
    current = None  # (index, rows)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(lineno, "unterminated section header %r" % _excerpt(raw))
            name = line[1:-1].strip()
            if not name.startswith("matrix."):
                raise ParseError(lineno, "unknown section %r" % _excerpt(name))
            try:
                index = int(name.split(".", 1)[1])
            except ValueError:
                raise ParseError(lineno, "bad matrix index in %r" % _excerpt(name))
            if index not in (1, 2, 3):
                raise ParseError(lineno, "matrix index must be 1, 2 or 3", code="matrix-shape")
            if index in matrices:
                raise ParseError(lineno, "duplicate section [matrix.%d]" % index)
            current = (index, [])
            matrices[index] = current[1]
            continue
        if "=" in line and current is None:
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _SCALAR_KEYS:
                raise ParseError(lineno, "unknown key %r" % _excerpt(key))
            if key in fields:
                raise ParseError(lineno, "duplicate key %r" % key)
            fields[key] = (value, lineno)
            continue
        if current is None:
            raise ParseError(lineno, "matrix row outside a [matrix.i] section")
        current[1].append((line, lineno))

    def need(key):
        if key not in fields:
            raise ParseError(0, "missing required key %r" % key, code="missing-key")
        return fields[key]

    def integer(key):
        value, lineno = need(key)
        number = read_integer(value)
        if number is None:
            raise ParseError(lineno, "%s wants an integer, got %r" % (key, _excerpt(value)))
        return number

    conductor = integer("conductor")
    if conductor < 1:
        raise ParseError(fields["conductor"][1], "conductor must be positive",
                         code="bad-conductor")
    order = integer("order")
    _at(fields["conductor"][1], check_field, conductor, order)

    value, lineno = need("swap")
    if value not in ("true", "false"):
        raise ParseError(lineno, "swap wants true or false, got %r" % _excerpt(value))
    swap = value == "true"

    def ints(key):
        value, lineno = need(key)
        return _at(lineno, read_ints, value, key)

    weights = ints("weights")
    weights2 = ints("weights2") if "weights2" in fields else None
    declared = ints("exponents") if "exponents" in fields else None

    grids, literals = [], {}  # literals: each distinct entry text -> its terms
    g = conductor  # gcd of the conductor and every exponent of z
    for index in (1, 2, 3):
        if index not in matrices:
            raise ParseError(0, "missing section [matrix.%d]" % index, code="matrix-shape")
        rows = matrices[index]
        if len(rows) != 4:
            raise ParseError(
                rows[-1][1] if rows else 0,
                "matrix.%d has %d rows, expected 4" % (index, len(rows)),
                code="matrix-shape",
            )
        grid = []
        for content, lineno in rows:
            entries = [e.strip() for e in content.split(",")]
            if len(entries) != 4:
                raise ParseError(
                    lineno,
                    "matrix.%d row has %d entries, expected 4" % (index, len(entries)),
                    code="matrix-shape",
                )
            for entry in entries:
                if entry not in literals:
                    try:
                        literals[entry] = terms = _literal_terms(entry)
                    except LiteralError as exc:
                        raise ParseError(lineno, str(exc), code="bad-literal")
                    g = gcd(g, *(e for *_, e in terms if e is not None))
            grid.append(entries)
        grids.append(grid)

    spec = ActionSpec(order=order, weights=weights, swap=swap, weights2=weights2)
    validate_action(spec)
    field = lcm(conductor // g, gcd(conductor, order))
    value = {entry: _fold_terms(terms, conductor, field) for entry, terms in literals.items()}
    model = model_from_matrices([[[value[entry] for entry in row] for row in grid]
                                 for grid in grids])
    validate_model(model)
    return Instance(model=model, spec=spec, conductor=conductor,
                    declared_exponents=declared)


def serialize_instance(inst: Instance) -> str:
    lines = []
    lines.append("conductor = %d" % inst.conductor)
    lines.append("order = %d" % inst.spec.order)
    lines.append("swap = %s" % ("true" if inst.spec.swap else "false"))
    lines.append("weights = %s" % ", ".join(str(w) for w in inst.spec.weights))
    if inst.spec.weights2 is not None:
        lines.append("weights2 = %s" % ", ".join(str(w) for w in inst.spec.weights2))
    if inst.declared_exponents is not None:
        lines.append("exponents = %s" % ", ".join(str(s) for s in inst.declared_exponents))
    for index in range(3):
        lines.append("")
        lines.append("[matrix.%d]" % (index + 1))
        for row in inst.model.matrices[index]:
            entries = []
            for v in row:
                if inst.conductor % v.n:
                    raise ValueError(
                        "entry conductor %d does not divide the file conductor %d"
                        % (v.n, inst.conductor)
                    )
                entries.append(format_cyclotomic(v.lift(inst.conductor)))
            lines.append(", ".join(entries))
    return "\n".join(lines) + "\n"


def load_instance(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise InputError("bad-encoding", "the instance file is not UTF-8 text "
                         "(byte 0x%02x)" % exc.object[exc.start])
    return parse_instance(text)


def save_instance(inst: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize_instance(inst))
