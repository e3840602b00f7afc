"""Seeded fuzzing of the parser and the CLI: random and mutated presentations.

No input may escape as an exception other than the library's own errors, and
every CLI exit code is 0-3.  Budgets stay small so each example is cheap.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

from singulant.cli import main, parse_module, parse_ring
from singulant.errors import SingulantError

FIELDS = ["Q", "F2", "F3", "F7"]
NAMES = ["x", "y", "z", "w"]
# grammar symbols plus characters the tokenizer must refuse: non-ASCII
# letters and digits, control characters and stray punctuation
MUTATIONS = list("^*+-()[]/,  0123456789xyzRkQF_.;\n\t") + ["é", "²", "٣", "\x00"]
FUZZ_SETTINGS = settings(max_examples=60, derandomize=True, deadline=None,
                         database=None)


def polynomial(names):
    atom = st.one_of(st.sampled_from(names), st.integers(0, 99).map(str),
                     st.sampled_from(["1/2", "10^40", "2^99999"]))

    def grow(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from([" + ", " - ", "*"]), inner).map("".join),
            st.tuples(inner, st.integers(0, 9)).map(lambda t: f"({t[0]})^{t[1]}"),
            inner.map(lambda p: f"-{p}"),
        )

    return st.recursive(atom, grow, max_leaves=6)


@st.composite
def mutated(draw, text):
    """text with up to three characters inserted, deleted or replaced; half
    the texts stay as they are."""
    chars = list(draw(text))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        at = draw(st.integers(0, len(chars)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert" or not chars or at == len(chars):
            chars.insert(at, draw(st.sampled_from(MUTATIONS)))
        elif edit == "delete":
            del chars[at]
        else:
            chars[at] = draw(st.sampled_from(MUTATIONS))
    return "".join(chars)


@st.composite
def presentation(draw):
    names = NAMES[:draw(st.integers(1, 3))]
    gens = draw(st.lists(polynomial(names), max_size=3))
    quotient = f" / ({', '.join(gens)})" if gens else ""
    return f"{draw(st.sampled_from(FIELDS))}[{','.join(names)}]{quotient}"


def module():
    entries = polynomial(NAMES[:2])
    return st.one_of(
        st.sampled_from(["k", "R", "R/(x)", "[[x, y], [y, x]]"]),
        st.lists(entries, max_size=3).map(lambda gs: f"R/({', '.join(gs)})"),
        st.lists(st.lists(entries, min_size=2, max_size=2), min_size=1, max_size=2).map(
            lambda rows: "[" + ", ".join("[" + ", ".join(r) + "]" for r in rows) + "]"),
    )


def _library_errors_only(parse, *args):
    try:
        parse(*args)
    except SingulantError:
        pass


@FUZZ_SETTINGS
@given(mutated(presentation()), mutated(module()))
def test_parsers_raise_only_library_errors(ring_text, module_text):
    _library_errors_only(parse_ring, ring_text)
    _library_errors_only(parse_module, module_text, parse_ring("Q[x,y]/(x^2, x*y)"))


def sequence():
    """`(f1, ...)` of up to three polynomials, zeros kept by the parser."""
    entry = st.one_of(st.just("0"), polynomial(NAMES[:2]))
    return st.lists(entry, max_size=3).map(lambda fs: f"({', '.join(fs)})")


@settings(FUZZ_SETTINGS, max_examples=50)
@given(mutated(presentation()), mutated(module()), mutated(module()), sequence(),
       st.integers(0, 3))
def test_cli_exits_with_a_code_from_zero_to_three(ring_text, module_text, target_text,
                                                  sequence_text, degree):
    # "--" keeps a text that starts with "-" positional
    budgets = ["--max-steps", "2000", "--max-degree", "8"]
    for argv in (["dim", *budgets, "--", ring_text],
                 ["jac", *budgets, "--", ring_text],
                 ["resolve", *budgets, "--length", "2", "--", ring_text, module_text],
                 ["ext", *budgets, "--degree", "1", "--", ring_text, module_text,
                  target_text],
                 ["koszul", *budgets, "--sequence", sequence_text, "--degree", str(degree),
                  "--", ring_text, module_text]):
        assert main(argv) in (0, 1, 2, 3)
