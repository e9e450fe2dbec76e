import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lifted, per_entry_model

from fano212.cyclotomic import Cyclotomic
from fano212.instancefile import (
    ParseError,
    parse_instance,
    serialize_instance,
)
from fano212.model import InputError

DATA = os.path.join(os.path.dirname(__file__), "data")


def data_text(name):
    with open(os.path.join(DATA, name)) as handle:
        return handle.read()


class TestRoundtrip:
    @pytest.mark.parametrize("name", ["symmetric_n2.txt", "swap_n8.txt"])
    def test_parse_serialize_is_byte_idempotent(self, name):
        text = data_text(name)
        inst = parse_instance(text)
        canonical = serialize_instance(inst)
        assert canonical == text
        assert serialize_instance(parse_instance(canonical)) == canonical

    def test_comments_and_blank_lines_ignored(self):
        text = data_text("symmetric_n2.txt")
        noisy = "# leading comment\n\n" + text.replace(
            "order = 2", "order = 2   # the declared order"
        )
        inst = parse_instance(noisy)
        assert inst.spec.order == 2


class TestErrors:
    def test_matrix_shape_names_matrix(self):
        with pytest.raises(ParseError) as exc:
            parse_instance(data_text("bad_shape.txt"))
        assert exc.value.code == "matrix-shape"
        assert "matrix.1" in str(exc.value)

    def test_parity_violation_cites_true_order(self):
        with pytest.raises(InputError) as exc:
            parse_instance(data_text("bad_parity.txt"))
        assert exc.value.code == "parity"
        assert "4" in str(exc.value)  # computed projective order

    def test_syntax_error_carries_line(self):
        text = data_text("symmetric_n2.txt").replace("-4, -5, 0, -6", "-4, oops, 0, -6")
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert exc.value.code == "bad-literal"
        assert exc.value.line == 8  # first row of [matrix.1]

    def test_unknown_key(self):
        with pytest.raises(ParseError):
            parse_instance("conductor = 2\nfrobnicate = 1\n")

    def test_missing_matrix_section(self):
        text = "\n".join(
            line
            for line in data_text("symmetric_n2.txt").splitlines()
            if not line.startswith("[matrix.3]")
        )
        # removing only the header makes rows fall into matrix.2
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert exc.value.code == "matrix-shape"

    @pytest.mark.parametrize("edit, code, line", [
        (lambda t: t.replace("swap = true", "order = 8"), "syntax", 3),
        (lambda t: t.replace("[matrix.2]", "[matrix.1]"), "syntax", 13),
        (lambda t: t.replace("order = 8\n", ""), "missing-key", 0),
        (lambda t: t[:t.index("[matrix.3]")], "matrix-shape", 0),
        (lambda t: t.replace("[matrix.3]", "[matrix.4]"), "matrix-shape", 19),
        (lambda t: t.replace("exponents", "weights2 = 0, 2, 4, 6\nexponents"),
         "extra-weights2", None),
    ], ids=["duplicate-key", "duplicate-section", "missing-order", "missing-matrix-3",
            "matrix-4", "weights2-on-a-swap"])
    def test_swap_n8_variant_is_refused(self, edit, code, line):
        with pytest.raises(InputError) as exc:
            parse_instance(edit(data_text("swap_n8.txt")))
        assert exc.value.code == code
        assert getattr(exc.value, "line", None) == line

    def test_bad_conductor(self):
        with pytest.raises(ParseError) as exc:
            parse_instance("conductor = 0\norder = 2\nswap = true\nweights = 0,0,0,0\n")
        assert exc.value.code == "bad-conductor"

    @pytest.mark.parametrize("conductor", [2310, 10**6])
    def test_conductor_too_large(self, conductor):
        text = data_text("swap_n8.txt").replace("conductor = 8", "conductor = %d" % conductor)
        started = time.monotonic()
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert time.monotonic() - started < 1
        assert exc.value.code == "conductor-too-large"
        assert exc.value.line == 1

    def test_conductor_limit_is_on_the_working_field(self):
        # conductor 129 alone is below the limit, lcm(129, 8) = 1032 is not
        text = data_text("swap_n8.txt").replace("conductor = 8", "conductor = 129")
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert exc.value.code == "conductor-too-large"
        text = data_text("swap_n8.txt").replace("conductor = 8", "conductor = 1024")
        assert parse_instance(text).conductor == 1024

    def test_order_zero(self):
        text = data_text("swap_n8.txt").replace("order = 8", "order = 0")
        with pytest.raises(InputError) as exc:
            parse_instance(text)
        assert exc.value.code == "bad-order"

    @pytest.mark.parametrize(
        "literal", ["1" * 4301, "1/" + "3" * 4301, "z^" + "2" * 4301, "1/0"],
        ids=["long-numerator", "long-denominator", "long-exponent", "zero-denominator"],
    )
    def test_unreadable_number_is_bad_literal(self, literal):
        text = data_text("swap_n8.txt").replace("-3, 6, 0, 0", "%s, 6, 0, 0" % literal)
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert exc.value.code == "bad-literal"
        assert exc.value.line == 8

    def test_dependent_forms_detected(self):
        text = data_text("symmetric_n2.txt")
        # overwrite matrix.2 with matrix.1's rows
        head, m1, m2, m3 = text.split("[matrix.")
        broken = head + "[matrix." + m1 + "[matrix.2]\n" + "\n".join(
            m1.splitlines()[1:5]
        ) + "\n\n[matrix." + m3
        with pytest.raises(InputError) as exc:
            parse_instance(broken)
        assert exc.value.code == "dependent-forms"


def entries(inst):
    return [v for mat in inst.model.matrices for row in mat for v in row]


class TestWorkingField:
    def test_lifted_literals_descend_to_the_field_they_generate(self):
        text = lifted(data_text("swap_n8.txt"), 504, 63)
        inst = parse_instance(text)
        assert inst.conductor == 504
        assert all(v.n == 8 for v in entries(inst))
        assert entries(inst) == entries(parse_instance(data_text("swap_n8.txt")))
        assert serialize_instance(inst) == text

    def test_primitive_literals_keep_the_declared_field(self):
        # z is zeta_105, and 8 does not divide 105
        text = data_text("swap_n8.txt").replace("conductor = 8", "conductor = 105")
        inst = parse_instance(text)
        assert all(v.n == 105 for v in entries(inst))
        assert serialize_instance(inst) == text

    def test_conductor_equal_to_the_order_keeps_its_field(self):
        # every exponent even, yet the action lives in Q(zeta_8)
        inst = parse_instance(lifted(data_text("swap_n8.txt"), 8, 2))
        assert all(v.n == 8 for v in entries(inst))

    def test_one_odd_exponent_in_the_last_matrix_keeps_the_declared_field(self):
        text = lifted(data_text("swap_n8.txt"), 16, 2)
        head, last = text.split("[matrix.3]")
        text = head + "[matrix.3]" + last.replace("0, 0, 0, -4", "0, 0, z, -4")
        inst = parse_instance(text)
        assert all(v.n == 16 for v in entries(inst))
        assert inst.model.matrices[2][2][2] == Cyclotomic.zeta(16)
        assert serialize_instance(inst) == text


class TestDistinctTexts:
    """parse_instance reads and folds each distinct entry text once."""

    def test_bad_literal_on_two_lines_is_reported_at_the_first(self):
        text = data_text("symmetric_n2.txt").replace(
            "-4, -5, 0, -6", "-4, 2*zz, 0, -6").replace("-6, 1, -2, -2", "-6, 1, 2*zz, -2")
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert exc.value.code == "bad-literal" and exc.value.line == 8
        assert str(exc.value) == "line 8: bad term '2*zz' in literal '2*zz'"

    @pytest.mark.parametrize("text", [
        data_text("swap_n8.txt"),
        data_text("symmetric_n2.txt"),
        lifted(data_text("swap_n8.txt"), 504, 63),
        lifted(data_text("swap_n8.txt"), 16, 2),
    ], ids=["swap_n8", "symmetric_n2", "swap_n8-at-504", "swap_n8-at-16"])
    def test_repeated_texts_give_the_per_entry_model(self, text):
        inst, oracle = parse_instance(text), per_entry_model(text)
        values = entries(inst)
        assert [(v.n, v.num, v.den) for v in values] == [
            (v.n, v.num, v.den) for mat in oracle.matrices for row in mat for v in row]
        assert inst.model == oracle
        # equal texts share one value: fewer objects than entries
        texts = {e.strip() for line in text.split("[matrix.1]")[1].splitlines()
                 for e in line.split(",") if e.strip() and not e.startswith("[")}
        assert len({id(v) for v in values}) == len(texts) < len(values)

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.sampled_from(["0", "1", "-2", "z", "3*z^2", "z^4 - 1", "1/2*z^6",
                                     "z^4-1", "-z^3 + 1/3"]), min_size=48, max_size=48))
    def test_drawn_grids_give_the_per_entry_model(self, pool):
        rows = [", ".join(pool[4 * r:4 * r + 4]) for r in range(12)]
        text = "conductor = 8\norder = 2\nswap = true\nweights = 0, 0, 0, 0\n" + "".join(
            "\n[matrix.%d]\n%s\n" % (i + 1, "\n".join(rows[4 * i:4 * i + 4])) for i in range(3))
        try:
            inst = parse_instance(text)
        except InputError as exc:
            assert exc.code == "dependent-forms"
            return
        assert [(v.n, v.num, v.den) for v in entries(inst)] == [
            (v.n, v.num, v.den) for mat in per_entry_model(text).matrices
            for row in mat for v in row]


SWAP8_LINES = data_text("swap_n8.txt").splitlines()

# as text: an int over 4300 digits has no repr
_numbers = st.one_of(
    st.integers(-3, 12).map(str),
    st.integers(-10**40, 10**40).map(str),
    st.sampled_from(["1000000", "2310", "1024", "1025", "-1" + "0" * 4400, "1" + "0" * 4400]),
)
_values = st.one_of(
    st.text(max_size=20),
    _numbers,
    st.lists(_numbers, min_size=1, max_size=5).map(", ".join),
    st.integers(1, 6000).map(lambda digits: "7" * digits),
    st.integers(1, 6000).map(lambda digits: "z^" + "7" * digits),
    st.integers(1, 6000).map(lambda digits: "1/" + "0" * digits),
)


@settings(deadline=2000, max_examples=300, derandomize=True)
@given(st.lists(
    st.tuples(st.integers(0, len(SWAP8_LINES) - 1), st.integers(0, 4), _values),
    min_size=1, max_size=3,
))
def test_parse_instance_fuzz(mutations):
    """Only the three input errors may escape.  Each mutation changes one line
    of swap_n8.txt: a key gets a new value, a matrix row gets one entry
    replaced, and any other line (or position 4) is replaced whole."""
    lines = list(SWAP8_LINES)
    for index, position, value in mutations:
        key, equals, _ = lines[index].partition("=")
        entries = lines[index].split(",")
        if equals:
            lines[index] = key + "= " + value
        elif position < len(entries) and len(entries) > 1:
            entries[position] = value
            lines[index] = ", ".join(entries)
        else:
            lines[index] = value
    try:
        parse_instance("\n".join(lines) + "\n")
    except InputError:
        pass
