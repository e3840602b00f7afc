"""Command-line interface: parse presentations, dispatch, emit text or JSON.

Grammar (the ``ring`` keyword is optional, so formatted output re-parses):

    ring <FIELD>[v1,...,vn] / (g1, ..., gc)      FIELD ::= Q | F<p>

Polynomials use infix ``^ * + -`` with integer (or ``a/b`` rational)
coefficients.  Modules are entered as cyclic quotients ``R/(g1,...)``,
the shorthands ``R`` and ``k``, or a bracketed relation matrix
``[[x,y],[0,x]]`` (rows = module generators, columns = relations).

Exit codes: 0 success, 1 mathematical precondition failure, 2 parse
error, 3 budget exhaustion.  Each command runs in one budget scope, so
``--max-degree`` / ``--max-steps`` bound the command as a whole; they and
the corpus seed ``--seed`` fall back to the environment variables
SINGULANT_MAX_DEGREE, SINGULANT_MAX_STEPS, SINGULANT_SEED.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import string
import sys
from fractions import Fraction

from .errors import (
    Budget,
    BudgetExceededError,
    ParseError,
    PreconditionError,
    StructuralError,
    UnsupportedInputError,
    budget_scope,
    check_degree,
)
from .homalg import (
    annihilates_ext,
    ext_module,
    koszul_cohomology,
    module_k_dimension,
    stable_annihilation_test,
)
from .ideal_ops import (
    IDENT_CHARS,
    IDENT_START,
    IdealHandle,
    RingPresentation,
    height,
    is_equidimensional,
    loewy_length,
    minimal_generators,
    minimal_primes_monomial,
    ring_dimension,
    socle,
)
from .jacobian import jacobian_ideal, singular_locus_certificate
from .poly import GREVLEX, LEX, QQ, PrimeField
from .report import (
    RingContext,
    build_report,
    format_ledger,
    generation_time_bound,
    ledger_passed,
    verify_paper_examples,
)
from .resolve import FinitelyPresentedModule, free_resolution, ring_depth

_ORDERS = {"grevlex": GREVLEX, "lex": LEX}


# ---------------------------------------------------------------------------
# tokenizer / parser

_SYMBOLS = set("^*+-()[]/,")
# only ASCII digits and identifiers: int() and str.isdigit() accept other
# Unicode digits, which must not read as numbers
_DIGITS = frozenset(string.digits)


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch in _DIGITS or ch in IDENT_START:
            kind, chars = ("INT", _DIGITS) if ch in _DIGITS else ("IDENT", IDENT_CHARS)
            j = i
            while j < len(text) and text[j] in chars:
                j += 1
            tokens.append((kind, text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("EOF", "", line, col))
    return tokens


# deepest nesting of parentheses and unary minus signs the parser accepts;
# each level costs a few Python frames, so this stays well below the
# interpreter's recursion limit
_MAX_NESTING = 100


def _int(digits: str, tok) -> int:
    """The value of a digit string, as a ParseError at tok when Python
    refuses to convert it (past sys.get_int_max_str_digits())."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer of {len(digits)} digits is too long", tok[2], tok[3]) from None


def _check_digits(p, tok, exp=1):
    """A ParseError at tok when p^exp has a rational coefficient past
    sys.get_int_max_str_digits(), which str() cannot print.  For a power,
    only lc(p^exp) = lc(p)^exp is checked, from bit lengths alone
    (2^(4 * limit) > 10^limit), so that it is refused before it is computed."""
    limit = sys.get_int_max_str_digits()
    if not limit or p.ring.field.characteristic or p.is_zero():
        return
    if exp == 1:
        bound = 10 ** limit
        big = any(abs(c.numerator) >= bound or c.denominator >= bound for _, c in p.terms)
    else:
        lc = p.lead_coeff()
        big = exp * (max(abs(lc.numerator), lc.denominator).bit_length() - 1) >= 4 * limit
    if big:
        raise ParseError(f"coefficient of more than {limit} digits", tok[2], tok[3])


class _Parser:
    """Recursive-descent parser over one input string."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self, ahead: int = 0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self):
        tok = self.tokens[self.pos]
        if self.pos < len(self.tokens) - 1:
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None):
        tok = self.advance()
        if tok[0] != kind:
            self.fail(f"expected {what or kind}", tok)
        return tok

    def fail(self, message: str, tok=None):
        tok = tok or self.peek()
        found = "end of input" if tok[0] == "EOF" else repr(tok[1])
        raise ParseError(f"{message}, found {found}", tok[2], tok[3])

    # -- polynomial expressions ------------------------------------------------

    def poly(self, ring):
        """poly := term (('+'|'-') term)*"""
        start = self.peek()
        value = self._term(ring)
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self._term(ring)
            value = value + rhs if op == "+" else value - rhs
        _check_digits(value, start)
        return value

    def _term(self, ring):
        value = self._factor(ring)
        while self.peek()[0] == "*":
            self.advance()
            value = value * self._factor(ring)
        return value

    def _factor(self, ring):
        start = self.peek()
        base = self._base(ring)
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("INT", "exponent")
            exp = _int(tok[1], tok)
            # the degree and digit limits bound the expansion before it is computed
            check_degree(base.total_degree() * exp)
            _check_digits(base, start, exp)
            return base ** exp
        return base

    def _nested(self, parse, tok):
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ParseError(f"nesting deeper than {_MAX_NESTING} levels",
                             tok[2], tok[3])
        value = parse()
        self.depth -= 1
        return value

    def _base(self, ring):
        tok = self.peek()
        if tok[0] == "-":
            self.advance()
            return self._nested(lambda: -self._factor(ring), tok)
        if tok[0] == "INT":
            self.advance()
            value = _int(tok[1], tok)
            # rational coefficient a/b, so formatted output re-parses
            if self.peek()[0] == "/" and self.peek(1)[0] == "INT":
                self.advance()
                dtok = self.advance()
                den = _int(dtok[1], dtok)
                if den == 0:
                    raise ParseError("zero denominator", tok[2], tok[3])
                try:
                    return ring.poly_ring.constant(Fraction(value, den))
                except StructuralError as exc:
                    raise ParseError(str(exc), tok[2], tok[3])
            return ring.poly_ring.constant(value)
        if tok[0] == "IDENT":
            self.advance()
            try:
                return ring.variable_named(tok[1])
            except (StructuralError, KeyError):
                raise ParseError(f"unknown variable {tok[1]!r}", tok[2], tok[3])
        if tok[0] == "(":
            self.advance()
            value = self._nested(lambda: self.poly(ring), tok)
            self.expect(")", "')'")
            return value
        self.fail("expected a polynomial")

    def comma_list(self, item, opening, closing, empty=False):
        """opening item (',' item)* closing: (items, closing token); with
        ``empty`` the list may also have no items."""
        self.expect(opening, f"'{opening}'")
        items = []
        if not (empty and self.peek()[0] == closing):
            items.append(item())
            while self.peek()[0] == ",":
                self.advance()
                items.append(item())
        return items, self.expect(closing, f"'{closing}'")

    def poly_list(self, ring):
        """'(' poly (',' poly)* ')' — an empty '()' gives no generators."""
        return self.comma_list(lambda: self.poly(ring), "(", ")", empty=True)[0]


def parse_ring(text: str, *, order=GREVLEX) -> RingPresentation:
    """`ring <FIELD>[vars] / (gens)` — keyword and quotient part optional."""
    parser = _Parser(text)
    if parser.peek()[1] == "ring":
        parser.advance()
    ftok = parser.expect("IDENT", "field (Q or F<p>)")
    fld = _field_from_token(ftok)
    seen = set()

    def variable():
        tok = parser.expect("IDENT", "variable name")
        if tok[1] in seen:
            raise ParseError(f"duplicate variable name {tok[1]!r}",
                             tok[2], tok[3])
        seen.add(tok[1])
        return tok[1]

    names = parser.comma_list(variable, "[", "]")[0]
    ambient = RingPresentation(fld, names, (), order)
    gens = []
    if parser.peek()[0] == "/":
        parser.advance()
        start = parser.peek()
        gens = parser.poly_list(ambient)
        if any(g.is_zero() for g in gens):
            raise ParseError("zero defining generator rejected", start[2], start[3])
    parser.expect("EOF", "end of input")
    return RingPresentation(fld, names, gens, order)


def _field_from_token(tok):
    name = tok[1]
    if name == "Q":
        return QQ
    if name.startswith("F") and name[1:].isdigit() and name.isascii():
        try:
            return PrimeField(_int(name[1:], tok))
        except StructuralError as exc:
            raise ParseError(str(exc), tok[2], tok[3])
    raise ParseError(f"expected field Q or F<p>, found {name!r}",
                     tok[2], tok[3])


def parse_element(text: str, ring: RingPresentation):
    parser = _Parser(text)
    value = parser.poly(ring)
    parser.expect("EOF", "end of input")
    return value


def _parse_poly_list(text: str, ring: RingPresentation):
    """`(f1, ...)` as a list, zeros kept."""
    parser = _Parser(text)
    polys = parser.poly_list(ring)
    parser.expect("EOF", "end of input")
    return polys


def parse_ideal(text: str, ring: RingPresentation) -> IdealHandle:
    return IdealHandle(ring, _parse_poly_list(text, ring))


def parse_module(text: str, ring: RingPresentation) -> FinitelyPresentedModule:
    """``R/(gens)``, ``R``, ``k``, or a relation matrix ``[[...],[...]]``."""
    parser = _Parser(text)
    tok = parser.peek()
    if tok[0] == "IDENT" and tok[1] == "R":
        parser.advance()
        gens = []
        if parser.peek()[0] == "/":
            parser.advance()
            gens = parser.poly_list(ring)
        parser.expect("EOF", "end of input")
        return FinitelyPresentedModule.cyclic(ring, gens)
    if tok[0] == "IDENT" and tok[1] == "k":
        parser.advance()
        parser.expect("EOF", "end of input")
        return FinitelyPresentedModule.residue_field(ring)
    if tok[0] == "[":
        rows, closing = parser.comma_list(
            lambda: parser.comma_list(lambda: parser.poly(ring), "[", "]")[0], "[", "]")
        parser.expect("EOF", "end of input")
        if len({len(row) for row in rows}) > 1:
            raise ParseError("ragged relation matrix", closing[2], closing[3])
        return FinitelyPresentedModule(ring, len(rows), rows)
    parser.fail("expected a module (R/(...), R, k, or [[...],[...]])")


# ---------------------------------------------------------------------------
# serialization helpers


def _poly_json(p):
    """Coefficient/exponent-list form: [[coeff, [e1..en]], ...]."""
    return [[str(c), list(m.exps)] for m, c in p.terms]


def _matrix_json(rows):
    return [[_poly_json(entry) for entry in row] for row in rows]


def _resolution_json(res):
    pd = res.projective_dimension()
    return {
        "ranks": list(res.ranks),
        "minimal": res.minimal,
        "complete": res.complete,
        "periodic": list(res.periodic) if res.periodic is not None else None,
        "projective_dimension": pd if isinstance(pd, int) else (
            "infinite" if pd is not None else None),
        "differentials": [_matrix_json(d) for d in res.differentials],
    }


def _verdict_text(value) -> str:
    if value is None:
        return "unknown"
    return "true" if value else "false"


def _format_matrix(ring, rows) -> str:
    cells = [[ring.format_element(e) for e in row] for row in rows]
    if not cells:
        return "  (zero map)"
    width = max(len(c) for row in cells for c in row)
    return "\n".join(
        "  [" + ", ".join(c.rjust(width) for c in row) + "]" for row in cells
    )


def _required(args, ring, key, parse, form):
    """parse(value of --key, ring); a ParseError when the flag is missing."""
    if getattr(args, key) is None:
        raise ParseError(f"{args.command} requires --{key} \"{form}\"")
    return parse(getattr(args, key), ring)


# ---------------------------------------------------------------------------
# subcommands: one registry entry each, in --help order

_RING = ("ring", {"help": 'e.g. "ring Q[x,y] / (x^2, x*y)"'})
_MODULE = ("module", {"help": "module: R/(g1,...), R, k, or [[...]]"})
_TARGET = ("target", {"help": "second module, same syntax"})
_IDEAL = ("--ideal", {"metavar": "(g1,...)", "help": "ideal generators"})
_ELEMENT = ("--element", {"metavar": "r", "help": "ring element"})
_ASSUME = ("--assume-annihilates", {
    "action": "store_true",
    "help": "record the annihilation hypothesis instead of checking"})


def _degree(d):
    return ("--degree", {"type": int, "default": d,
                         "help": f"cohomological degree (default {d})"})


_COMMANDS = {}


def _command(name, help_, *arguments):
    """Register the decorated handler as subcommand ``name``, with
    ``arguments`` as (name or flag, add_argument keywords) pairs.  The
    handler maps (args, ring or None) to (exit code, text, result); a text
    of None makes the result the whole JSON document, printed in both modes."""
    def register(handler):
        _COMMANDS[name] = (help_, arguments, handler)
        return handler
    return register


@_command("jac", "Jacobian ideal of the presentation", _RING)
def _jac(args, ring):
    jac = jacobian_ideal(ring)
    return 0, jac.format(), {"gens": [ring.format_element(g)
                                      for g in jac.reduced_generators()]}


@_command("dim", "Krull dimension", _RING)
def _dim(args, ring):
    d = ring_dimension(ring)
    return 0, str(d), d


@_command("height", "height of the defining ideal (or --ideal)", _RING, _IDEAL)
def _height(args, ring):
    if args.ideal is not None:
        handle = parse_ideal(args.ideal, ring)
    else:
        handle = ring.defining_ideal()
    h = height(handle)
    return 0, str(h), h


@_command("depth", "depth of the ring", _RING)
def _depth(args, ring):
    d = ring_depth(ring)
    return 0, str(d), d


@_command("socle", "socle (0 : m)", _RING)
def _socle(args, ring):
    soc = socle(ring)
    return 0, soc.format(), {"gens": [ring.format_element(g)
                                      for g in soc.reduced_generators()]}


@_command("loewy", "Loewy length of R/I for the m-primary --ideal", _RING, _IDEAL)
def _loewy(args, ring):
    n = loewy_length(ring, _required(args, ring, "ideal", parse_ideal, "(g1, ...)"))
    return 0, str(n), n


@_command("nu", "minimal number of generators of --ideal", _RING, _IDEAL)
def _nu(args, ring):
    n = minimal_generators(_required(args, ring, "ideal", parse_ideal, "(g1, ...)"))
    return 0, str(n), n


@_command("equidim", "equidimensionality verdict", _RING)
def _equidim(args, ring):
    verdict = is_equidimensional(ring)
    return 0, _verdict_text(verdict), verdict


@_command("minimal-primes", "minimal primes of the (monomial) defining ideal", _RING)
def _minimal_primes(args, ring):
    result = []
    lines = []
    for p in minimal_primes_monomial(ring.defining_ideal()):
        gens = [ring.format_element(v) for v in p.generators]
        d = ring.nvars - len(gens)
        result.append({"gens": gens, "dim": d})
        lines.append(f"{p.format()}  dim {d}")
    return 0, "\n".join(lines) if lines else "(0)", result


@_command("isolated", "isolated-singularity certificate", _RING)
def _isolated(args, ring):
    cert = singular_locus_certificate(ring)
    lines = [_verdict_text(cert.isolated)]
    witnesses = [[ring.format_element(v) for v in p.generators]
                 for p in cert.witness_primes]
    for names in witnesses:
        lines.append(f"witness prime: ({', '.join(names)})")
    result = {"verdict": cert.isolated, "regular": cert.regular,
              "witness_primes": witnesses}
    return 0, "\n".join(lines), result


@_command("resolve", "minimal free resolution of a module", _RING, _MODULE,
          ("--length", {"type": int, "default": 4,
                        "help": "resolution length (default 4)"}))
def _resolve(args, ring):
    res = free_resolution(parse_module(args.module, ring), args.length)
    result = _resolution_json(res)
    pd = result["projective_dimension"]
    lines = [
        "ranks: " + " ".join(str(r) for r in res.ranks),
        f"minimal: {_verdict_text(res.minimal)}",
        f"projective dimension: {pd if pd is not None else f'>= {res.length}'}",
    ]
    for i in range(1, len(res.ranks)):
        lines.append(f"d_{i}:")
        lines.append(_format_matrix(ring, res.differential(i)))
    return 0, "\n".join(lines), result


@_command("ext", "Ext^i(M, N) presentation", _RING, _MODULE, _TARGET, _degree(1))
def _ext(args, ring):
    M = parse_module(args.module, ring)
    N = parse_module(args.target, ring)
    pres = ext_module(M, N, args.degree).to_module()
    dim = module_k_dimension(pres)
    text = (f"Ext^{args.degree}: presentation rank {pres.rank}, "
            f"{pres.n_relations} relations, k-dimension "
            + (str(dim) if dim is not None else "unknown"))
    result = {"degree": args.degree, "rank": pres.rank,
              "relations": pres.n_relations, "k_dimension": dim}
    return 0, text, result


@_command("ext-ann", "does r annihilate Ext^i(M, N)?", _RING, _MODULE, _TARGET,
          _ELEMENT, _degree(2))
def _ext_ann(args, ring):
    r = _required(args, ring, "element", parse_element, "r")
    M = parse_module(args.module, ring)
    N = parse_module(args.target, ring)
    ok = annihilates_ext(r, M, N, args.degree)
    return 0, _verdict_text(ok), ok


@_command("koszul", "Koszul cohomology H^i of a sequence on a module", _RING, _MODULE,
          ("--sequence", {"metavar": "(f1,...)", "help": "ring elements"}), _degree(0))
def _koszul(args, ring):
    sequence = _required(args, ring, "sequence", _parse_poly_list, "(f1, ...)")
    module = parse_module(args.module, ring)
    h = koszul_cohomology(sequence, module, args.degree)
    zero = h.is_zero_presentation()
    text = (f"H^{args.degree}: zero" if zero else
            f"H^{args.degree}: presentation rank {h.rank}, "
            f"{h.n_relations} relations")
    result = {"degree": args.degree, "rank": h.rank,
              "relations": h.n_relations, "zero": zero}
    return 0, text, result


@_command("stable-ann", "stable annihilation certificate for r on a module",
          _RING, _MODULE, _ELEMENT)
def _stable_ann(args, ring):
    r = _required(args, ring, "element", parse_element, "r")
    module = parse_module(args.module, ring)
    ok = stable_annihilation_test(r, module)
    return 0, _verdict_text(ok), ok


@_command("bound", "generation-time bound for --ideal (default: jac)",
          _RING, _IDEAL, _ASSUME)
def _bound(args, ring):
    if args.ideal is not None:
        ideal = parse_ideal(args.ideal, ring)
    else:
        ideal = jacobian_ideal(ring)
    result = generation_time_bound(
        RingContext(ring, args.seed), ideal, assume_annihilates=args.assume_annihilates
    ).payload()
    lines = [f"I = ({', '.join(result['I_gens'])})"]
    for key in ("nu", "loewy", "depth", "generation_time", "dim_sg_bound"):
        lines.append(f"{key} = {result[key]}")
    if result["assume_annihilates"]:
        lines.append("assume_annihilates = true")
    return 0, "\n".join(lines), result


@_command("report", "full singularity report (JSON)", _RING, _IDEAL, _ASSUME)
def _report(args, ring):
    bound_ideal = parse_ideal(args.ideal, ring) if args.ideal is not None else None
    return 0, None, build_report(ring, bound_ideal=bound_ideal,
                                 assume_annihilates=args.assume_annihilates,
                                 seed=args.seed)


@_command("verify-paper", "re-run the golden-example ledger",
          ("--field", {"default": "Q", "metavar": "FIELD",
                       "help": "coefficient field: Q or F<p> (default Q)"}))
def _verify_paper(args, ring):
    entries = verify_paper_examples(_field_from_token(("IDENT", args.field, 1, 1)))
    result = [{"name": e.name, "status": e.status, "detail": e.detail}
              for e in entries]
    return 0 if ledger_passed(entries) else 1, format_ledger(entries), result


# ---------------------------------------------------------------------------
# argument parsing and execution


@functools.cache
def _build_argparser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built by the first ``main`` call
    and kept for the rest of the process: parse_args leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit JSON instead of text")
    common.add_argument("--max-degree", type=int, default=None,
                        help="total-degree budget (env SINGULANT_MAX_DEGREE)")
    common.add_argument("--max-steps", type=int, default=None,
                        help="reduction-step budget of the whole command; the "
                             "report's certification sweep also caps each "
                             "guarded step at 20,000 (env SINGULANT_MAX_STEPS)")
    common.add_argument("--seed", type=int, default=None,
                        help="corpus seed (env SINGULANT_SEED)")
    common.add_argument("--order", choices=sorted(_ORDERS), default="grevlex",
                        help="monomial order")

    top = argparse.ArgumentParser(
        prog="singulant",
        description="singularity invariants of finitely presented rings",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_, arguments, _) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_)
        for flag, spec in arguments:
            p.add_argument(flag, **spec)
    return top


def _session(args) -> Budget:
    """The command's budget from flags, then environment, then defaults;
    the corpus seed resolves the same way onto ``args.seed`` (default 0)."""
    values = {}
    for key in ("max_degree", "max_steps", "seed"):
        value, env = getattr(args, key), f"SINGULANT_{key.upper()}"
        if value is None and env in os.environ:
            try:
                value = int(os.environ[env])
            except ValueError:
                raise ParseError(f"bad integer {os.environ[env]!r} for {env}")
        if value is not None:
            values[key] = value
    args.seed = values.pop("seed", 0)
    budget = Budget(**values)
    if budget.max_degree <= 0 or budget.max_steps <= 0:
        raise ParseError("budgets must be positive")
    return budget


def _execute(args):
    """Run one command in one budget scope: (exit code, output text)."""
    budget = _session(args)
    handler = _COMMANDS[args.command][2]
    with budget_scope(budget):
        ring = parse_ring(args.ring, order=_ORDERS[args.order]) if "ring" in args else None
        code, text, result = handler(args, ring)
    if text is None or args.json:
        doc = result if text is None else {"command": args.command, "result": result}
        text = json.dumps(doc, indent=2, sort_keys=True)
    return code, text


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        code, output = _execute(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except (PreconditionError, UnsupportedInputError, StructuralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        print(output)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early; point stdout at devnull so the
        # interpreter's flush at exit fails silently too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
