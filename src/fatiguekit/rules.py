"""Rule language, forward-chaining inference and verdict fusion.

Rules live in plain text packs:

    # comment
    rule NAME : when ATOM ( , ATOM )* then classify(VAR, CLASS)

with two atom forms: ``instance(?x, C)`` binds the anchor individual (one
per rule) and ``exists(C)`` requires some individual of class C. Conditions
are positive existence checks only, so inference is monotone, confluent and
terminates.

Per-source verdicts are read off the fact base as FatigueLevel values, then
fused into one overall level by a weighted mean of the level encodings.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from enum import IntEnum
from importlib import resources

from . import _inputs
from .errors import (
    AmbiguityError,
    ArgumentError,
    DuplicateRuleNameError,
    EmptyInputError,
    RuleSyntaxError,
    UnknownClassError,
)
from .kstore import FactBase, Taxonomy, default_taxonomy, ontology, query_class
from .qualify import QualificationScheme


class FatigueLevel(IntEnum):
    """Severity scale; the integer value is also the fusion encoding."""

    LOW = 0
    MEDIUM = 1
    HIGH = 2

    @classmethod
    def from_name(cls, name: str) -> "FatigueLevel":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ArgumentError(f"unknown fatigue level {name!r}") from None

    def display(self) -> str:
        return self.name.capitalize()


_LEVEL_CLASS_RE = re.compile(r"^(?P<stem>\w*Fatigue)_(?P<level>Low|Medium|High)$")


def level_class_parts(cls: str) -> tuple[str, FatigueLevel] | None:
    """(source, level) when cls names a per-level verdict class, else None."""
    m = _LEVEL_CLASS_RE.match(cls)
    if not m:
        return None
    # stems the ontology does not rename report as themselves
    source = ontology().source_names.get(m.group("stem"), m.group("stem"))
    return source, FatigueLevel.from_name(m.group("level"))


@dataclass(frozen=True, slots=True)
class Rule:
    """One classification rule.

    conditions: class names that must each have at least one member.
    anchor_var / anchor_class: the bound individual the conclusion applies to.
    """

    name: str
    anchor_var: str
    anchor_class: str
    conditions: tuple[str, ...]
    conclusion_class: str


@dataclass(frozen=True, slots=True)
class RulePack:
    rules: tuple[Rule, ...]

    def __post_init__(self):
        seen = set()
        for r in self.rules:
            if r.name in seen:
                raise DuplicateRuleNameError(r.name)
            seen.add(r.name)

    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.rules)


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(r"\?[A-Za-z_][A-Za-z0-9_]*|[A-Za-z_][A-Za-z0-9_]*|[(),:]|\S")

_KEYWORDS = {"rule", "when", "then", "classify", "instance", "exists"}


@dataclass(frozen=True, slots=True)
class _Token:
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for m in _TOKEN_RE.finditer(body):
            tokens.append(_Token(m.group(), line_no, m.start() + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], text: str):
        self.tokens = tokens
        self.pos = 0
        last_line = text.count("\n") + 1
        self._eof = _Token("<end of input>", last_line, 1)

    def peek(self) -> _Token:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else self._eof

    def advance(self) -> _Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def fail(self, expected: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise RuleSyntaxError(
            f"expected {expected}, found {tok.text!r}",
            line=tok.line, col=tok.col, expected=expected)

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text:
            self.fail(repr(text))
        return self.advance()

    def expect_name(self, what: str) -> _Token:
        tok = self.peek()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok.text) or tok.text in _KEYWORDS:
            self.fail(what)
        return self.advance()

    def expect_var(self, what: str = "a variable like ?x") -> _Token:
        tok = self.peek()
        if not tok.text.startswith("?") or len(tok.text) < 2:
            self.fail(what)
        return self.advance()


def _parse_rule(p: _Parser) -> tuple[Rule, _Token, list[_Token]]:
    kw = p.expect("rule")
    name_tok = p.expect_name("a rule name")
    p.expect(":")
    p.expect("when")

    anchor: tuple[str, str, _Token] | None = None  # (var, class, token)
    conditions: list[tuple[str, _Token]] = []
    while True:
        tok = p.peek()
        if tok.text == "instance":
            p.advance()
            p.expect("(")
            var = p.expect_var()
            p.expect(",")
            cls = p.expect_name("a class name")
            p.expect(")")
            if anchor is not None:
                raise RuleSyntaxError(
                    "second instance() atom; a rule binds exactly one anchor",
                    line=tok.line, col=tok.col, expected="exists(...)")
            anchor = (var.text, cls.text, cls)
        elif tok.text == "exists":
            p.advance()
            p.expect("(")
            cls = p.expect_name("a class name")
            p.expect(")")
            conditions.append((cls.text, cls))
        else:
            p.fail("'instance' or 'exists'")
        if p.peek().text == ",":
            p.advance()
            continue
        break

    p.expect("then")
    p.expect("classify")
    p.expect("(")
    var_tok = p.expect_var()
    p.expect(",")
    conclusion = p.expect_name("a class name")
    p.expect(")")

    if anchor is None:
        raise RuleSyntaxError(
            "rule has no instance() atom to bind its anchor",
            line=kw.line, col=kw.col, expected="instance(?x, C)")
    if var_tok.text != anchor[0]:
        raise RuleSyntaxError(
            f"classify uses {var_tok.text!r} but the anchor is {anchor[0]!r}",
            line=var_tok.line, col=var_tok.col, expected=anchor[0])

    rule = Rule(
        name=name_tok.text,
        anchor_var=anchor[0],
        anchor_class=anchor[1],
        conditions=tuple(c for c, _ in conditions),
        conclusion_class=conclusion.text,
    )
    class_tokens = [anchor[2], conclusion] + [t for _, t in conditions]
    return rule, name_tok, class_tokens


def parse_rules(text: bytes | str, taxonomy: Taxonomy | None = None) -> RulePack:
    """Parse a rule pack and validate every class against the taxonomy.

    The stock taxonomy is used when none is given. Errors carry line and
    column of the offending token.
    """
    text = _inputs.text(text, "rule pack")
    if taxonomy is None:
        taxonomy = default_taxonomy()
    tokens = _tokenize(text)
    p = _Parser(tokens, text)
    rules: list[Rule] = []
    seen: dict[str, int] = {}
    while p.pos < len(p.tokens):
        if p.peek().text != "rule":
            p.fail("'rule'")
        rule, name_tok, class_tokens = _parse_rule(p)
        if rule.name in seen:
            raise DuplicateRuleNameError(rule.name, line=name_tok.line)
        seen[rule.name] = name_tok.line
        for tok in class_tokens:
            if tok.text not in taxonomy.classes:
                raise UnknownClassError(
                    tok.text, rule=rule.name, line=tok.line, col=tok.col)
        rules.append(rule)
    return RulePack(rules=tuple(rules))


def load_stock_pack(variant: str = "corrected", taxonomy: Taxonomy | None = None) -> RulePack:
    """A shipped pack, "corrected" (default) or "verbatim", parsed as by parse_rules."""
    if variant not in ("corrected", "verbatim"):
        raise ArgumentError(f"unknown stock rule pack {variant!r}")
    text = resources.files("fatiguekit").joinpath(
        f"data/rules/table1_{variant}.rules").read_text("utf-8")
    return parse_rules(text, taxonomy)


def dead_conditions(pack: RulePack, scheme: QualificationScheme,
                    taxonomy: Taxonomy) -> list[tuple[str, str]]:
    """(rule, class) for each instance() or exists() class of a rule that no
    band label of the scheme, ontology anchor class or conclusion of the
    pack falls under: nothing can produce it, so the rule never fires.
    `taxonomy` is the scheme's, as `default_taxonomy(scheme)` builds it."""
    produced = {*ontology().anchors.values(), *(r.conclusion_class for r in pack.rules),
                *(label for labels in scheme.all_labels().values() for label in labels)}
    return [(r.name, c) for r in pack.rules for c in dict.fromkeys((r.anchor_class, *r.conditions))
            if taxonomy.descendants(c).isdisjoint(produced)]


# ---------------------------------------------------------------------------
# Inference

@dataclass(frozen=True, slots=True)
class FiredRule:
    rule: str
    individual: str
    iteration: int

    def to_dict(self) -> dict:
        return {"rule": self.rule, "individual": self.individual,
                "iteration": self.iteration}


def infer(fb: FactBase, pack: RulePack) -> tuple[FactBase, list[FiredRule]]:
    """Run the pack to fixpoint.

    Every iteration applies every rule whose conditions hold (conditions are
    read subclass-closed) to every entailed anchor individual, then adds the
    iteration's new memberships in one fact-base build. A membership two
    rules conclude in one iteration is logged once, under the first rule in
    pack order. Conditions are positive, so the fixpoint is unique whatever
    the application order.
    """
    iteration = 0
    log: list[FiredRule] = []
    while True:
        iteration += 1
        new: dict[tuple[str, str], str] = {}  # (individual, class) -> first rule
        for rule in pack.rules:
            if not all(query_class(fb, c) for c in rule.conditions):
                continue
            for ind in sorted(query_class(fb, rule.anchor_class)):
                if (ind, rule.conclusion_class) not in fb.memberships:
                    new.setdefault((ind, rule.conclusion_class), rule.name)
        if not new:
            return fb, log
        fb = replace(fb, memberships=fb.memberships.union(new))
        log.extend(FiredRule(rule=name, individual=ind, iteration=iteration)
                   for (ind, _), name in new.items())


def read_fatigue(fb: FactBase) -> dict[str, FatigueLevel]:
    """Per-source fatigue verdicts asserted in the fact base.

    A membership contributes the verdict of the nearest per-level class at
    or above its asserted class, so the most specific assertion wins along
    a chain. Two different levels for the same (source, individual) raise
    AmbiguityError; across individuals the highest severity is kept.
    """
    memo = fb.taxonomy.memo
    per_pair: dict[tuple[str, str], set[FatigueLevel]] = {}
    for ind, cls in fb.memberships:
        contributions = memo.get(("levels", cls))
        if contributions is None:
            contributions = memo["levels", cls] = _nearest_level_classes(fb.taxonomy, cls)
        for source, level in contributions:
            per_pair.setdefault((source, ind), set()).add(level)
    verdicts: dict[str, FatigueLevel] = {}
    for (source, ind), levels in per_pair.items():
        if len(levels) > 1:
            names = ", ".join(l.display() for l in sorted(levels))
            raise AmbiguityError(
                f"{ind!r} carries conflicting {source} levels: {names}")
        level = next(iter(levels))
        if source not in verdicts or level > verdicts[source]:
            verdicts[source] = level
    return verdicts


def _nearest_level_classes(taxonomy: Taxonomy, cls: str
                           ) -> frozenset[tuple[str, FatigueLevel]]:
    """Per-level verdict classes reachable from cls, keeping only the
    nearest ones per source (breadth-first distance)."""
    found: dict[str, set[FatigueLevel]] = {}
    frontier, seen = [cls], {cls}
    while frontier:
        here: dict[str, set[FatigueLevel]] = {}  # sources first met at this distance
        next_frontier = []
        for c in frontier:
            parts = level_class_parts(c)
            if parts is not None and parts[0] not in found:
                here.setdefault(parts[0], set()).add(parts[1])
            for p in taxonomy.parents.get(c, ()):
                if p not in seen:
                    seen.add(p)
                    next_frontier.append(p)
        found.update(here)
        frontier = next_frontier
    return frozenset((source, level) for source, levels in found.items() for level in levels)


# ---------------------------------------------------------------------------
# Fusion

@dataclass(frozen=True)
class FusionWeights:
    """Finite, non-negative weight per source; at least one must be positive."""

    weights: dict[str, float]

    def __post_init__(self):
        for source, w in self.weights.items():
            if not math.isfinite(w):
                raise ArgumentError(f"weight for {source!r} must be finite, got {w}")
            if w < 0:
                raise ArgumentError(f"weight for {source!r} must be >= 0, got {w}")
        if not any(w > 0 for w in self.weights.values()):
            raise ArgumentError("at least one fusion weight must be positive")

    def get(self, source: str) -> float:
        # unknown sources participate with unit weight rather than vanishing
        return self.weights.get(source, 1.0)


def fuse(levels: dict[str, FatigueLevel],
         weights: FusionWeights,
         cutoffs: tuple[float, float]) -> FatigueLevel:
    """Weighted mean of the level encodings, mapped back to a level.

    score < cutoffs[0] reads Low, score >= cutoffs[1] reads High, Medium in
    between. Weights for sources without a verdict are ignored. Both sums
    are exact (math.fsum), so the order of the sources never changes the
    outcome, nor does scaling every weight by a power of two. Another factor
    can, for a score within rounding of a cutoff, since the scaled weights
    round.
    """
    if not levels:
        raise EmptyInputError("no per-source levels to fuse")
    if not cutoffs[0] < cutoffs[1]:
        raise ArgumentError(f"cutoffs must increase, got {cutoffs}")
    total = math.fsum(weights.get(s) for s in levels)
    if total <= 0:
        raise EmptyInputError("all contributing sources have zero weight")
    # Each weight is divided by the total before the levels are summed: equal
    # weights then count exactly 1/n at any scale, so a mean that ties a
    # cutoff (High and Medium at equal weight tie 1.5) reads the same after
    # all weights are scaled. Summing first rounded 3w / 2w either way.
    score = math.fsum(weights.get(s) / total * int(level) for s, level in levels.items())
    if score < cutoffs[0]:
        return FatigueLevel.LOW
    if score < cutoffs[1]:
        return FatigueLevel.MEDIUM
    return FatigueLevel.HIGH
