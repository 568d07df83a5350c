"""Path-sensitive reference provenance for the REF0xx rules.

:class:`RefFlow` tracks one received reference through a handler body.
A received reference starts RECEIVED; aliases join its group
(``v = info.ref``); flowing into a call argument, a store, a ``return``
or a ``del`` consumes it; a path may end sanctioned (the exit is
lexically under a branch that *observed* the reference, i.e. a
deliberate discard) or leaking (the reference falls out of scope
unconsumed on that path).
"""

from __future__ import annotations

import ast

from repro.lint.model import attr_chain

__all__ = ["RefFlow", "PathEnd"]


class PathEnd:
    """One terminated execution path of a handler body."""

    __slots__ = ("node", "kind", "consumed", "sanctioned")

    def __init__(
        self, node: ast.AST, kind: str, consumed: bool, sanctioned: bool
    ) -> None:
        self.node = node
        #: "return" | "raise" | "fall" (fell off the end of the body)
        self.kind = kind
        self.consumed = consumed
        self.sanctioned = sanctioned


class _RefState:
    __slots__ = ("aliases", "consumed", "guard", "is_self")

    def __init__(
        self,
        aliases: frozenset[str],
        consumed: bool,
        guard: int,
        is_self: bool = False,
    ) -> None:
        self.aliases = aliases
        self.consumed = consumed
        self.guard = guard
        #: on this path the reference is known equal to the executing
        #: process's own ref (``ref == self.self_ref`` held); dropping a
        #: self-reference never cuts an edge, so such paths end
        #: sanctioned. Path knowledge, not lexical scope: neither side
        #: of the comparison changes, so the fact survives the join.
        self.is_self = is_self

    def copy(self) -> _RefState:
        return _RefState(self.aliases, self.consumed, self.guard, self.is_self)


#: per-function path blow-up bound; past it the analysis abstains.
_MAX_PATHS = 64


class RefFlow:
    """Path-sensitive provenance of one received reference parameter.

    The lattice a reference moves through::

        RECEIVED --alias--> RECEIVED (group grows: ``v = info.ref``)
                 --flow---> CONSUMED (call arg, store, return, del)

    and per *path* the exit is classified: a ``raise`` is always
    sanctioned; a ``return`` taken while control is inside a branch
    whose test *read* the reference is a deliberate observed discard
    (``if v == self.self_ref: return``); falling off the end of the body
    with the reference still RECEIVED is a leak — the edge the reference
    carried silently left the process graph.

    Only ``.ref`` projections propagate provenance: ``info.mode`` reads
    the piggybacked belief, not the reference, so passing it to a helper
    neither consumes nor aliases (the syntactic rule got this wrong and
    treated any mention as consumption).
    """

    def __init__(self, fn: ast.FunctionDef | ast.AsyncFunctionDef, param: str):
        self.fn = fn
        self.param = param
        self.ends: list[PathEnd] = []
        self.bailed = False

    # -- mention classification ------------------------------------------------

    def _ref_mentions(self, expr: ast.AST, aliases: frozenset[str]) -> bool:
        """Does *expr* mention the reference *as a reference*?

        Bare alias names and ``alias.ref`` projections count; other
        attribute projections (``alias.mode``) do not.
        """
        if isinstance(expr, ast.Attribute):
            if isinstance(expr.value, ast.Name) and expr.value.id in aliases:
                return expr.attr == "ref"
            return self._ref_mentions(expr.value, aliases)
        if isinstance(expr, ast.Name):
            return expr.id in aliases
        return any(
            self._ref_mentions(child, aliases)
            for child in ast.iter_child_nodes(expr)
        )

    def _call_consumes(self, expr: ast.AST, aliases: frozenset[str]) -> bool:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                for arg in node.args:
                    target = arg.value if isinstance(arg, ast.Starred) else arg
                    if self._ref_mentions(target, aliases):
                        return True
                for kw in node.keywords:
                    if self._ref_mentions(kw.value, aliases):
                        return True
            elif isinstance(node, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
                # a closure capturing the ref keeps it alive
                if self._ref_mentions(node, aliases):
                    return True
        return False

    def _self_compare(self, test: ast.expr, aliases: frozenset[str]) -> str | None:
        """Classify ``ref == <...>.self_ref`` tests: "eq", "ne", or None.

        The branch on which equality holds carries a reference to the
        executing process itself — never a cut edge, so discards there
        are sanctioned (the ``integrate`` idiom: ``if ref !=
        self.self_ref: store(ref)``).
        """
        if not (isinstance(test, ast.Compare) and len(test.ops) == 1):
            return None
        op = test.ops[0]
        if not isinstance(op, (ast.Eq, ast.NotEq)):
            return None
        for a, b in (
            (test.left, test.comparators[0]),
            (test.comparators[0], test.left),
        ):
            chain = attr_chain(b)
            if (
                chain is not None
                and chain.split(".")[-1] == "self_ref"
                and self._ref_mentions(a, aliases)
            ):
                return "eq" if isinstance(op, ast.Eq) else "ne"
        return None

    def _alias_source(self, value: ast.expr, aliases: frozenset[str]) -> bool:
        """``x = alias`` / ``x = alias.ref`` extends the alias group."""
        if isinstance(value, ast.Name):
            return value.id in aliases
        if isinstance(value, ast.Attribute) and value.attr == "ref":
            return isinstance(value.value, ast.Name) and value.value.id in aliases
        return False

    # -- the walk ---------------------------------------------------------------

    def run(self) -> list[PathEnd]:
        state = _RefState(frozenset({self.param}), False, 0)
        survivors = self._walk(self.fn.body, [state])
        for st in survivors:
            self.ends.append(
                PathEnd(self.fn, "fall", st.consumed, st.consumed or st.is_self)
            )
        return self.ends

    def _walk(self, stmts: list[ast.stmt], states: list[_RefState]) -> list[_RefState]:
        for stmt in stmts:
            if not states or self.bailed:
                return states
            if len(states) > _MAX_PATHS:
                self.bailed = True
                return states
            states = self._step(stmt, states)
        return states

    def _step(self, stmt: ast.stmt, states: list[_RefState]) -> list[_RefState]:
        if isinstance(stmt, ast.Return):
            for st in states:
                consumed = st.consumed or (
                    stmt.value is not None
                    and self._ref_mentions(stmt.value, st.aliases)
                )
                self.ends.append(
                    PathEnd(
                        stmt,
                        "return",
                        consumed,
                        consumed or st.guard > 0 or st.is_self,
                    )
                )
            return []
        if isinstance(stmt, ast.Raise):
            for st in states:
                self.ends.append(PathEnd(stmt, "raise", st.consumed, True))
            return []
        if isinstance(stmt, (ast.Break, ast.Continue)):
            # stays inside the function: neither a leak nor a release
            return []
        if isinstance(stmt, ast.If):
            out: list[_RefState] = []
            for st in states:
                observed = self._ref_mentions(stmt.test, st.aliases)
                consumed = st.consumed or self._call_consumes(stmt.test, st.aliases)
                self_cmp = self._self_compare(stmt.test, st.aliases)
                for branch, eq_holds in (
                    (stmt.body, self_cmp == "eq"),
                    (stmt.orelse, self_cmp == "ne"),
                ):
                    entry = _RefState(
                        st.aliases,
                        consumed,
                        st.guard + 1 if observed else st.guard,
                        st.is_self or eq_holds,
                    )
                    for survivor in self._walk(branch, [entry]):
                        survivor.guard = st.guard
                        out.append(survivor)
            return out
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            out = []
            for st in states:
                consumed = st.consumed or self._ref_mentions(stmt.iter, st.aliases)
                shadowed = {
                    n.id for n in ast.walk(stmt.target) if isinstance(n, ast.Name)
                }
                body_state = _RefState(
                    st.aliases - frozenset(shadowed), consumed, st.guard, st.is_self
                )
                skip = _RefState(st.aliases, consumed, st.guard, st.is_self)
                out.append(skip)
                for survivor in self._walk(stmt.body, [body_state]):
                    survivor.guard = st.guard
                    out.append(survivor)
            return out
        if isinstance(stmt, ast.While):
            out = []
            for st in states:
                observed = self._ref_mentions(stmt.test, st.aliases)
                out.append(st)
                entry = _RefState(
                    st.aliases,
                    st.consumed,
                    st.guard + 1 if observed else st.guard,
                    st.is_self,
                )
                for survivor in self._walk(stmt.body, [entry]):
                    survivor.guard = st.guard
                    out.append(survivor)
            return out
        if isinstance(stmt, ast.Try):
            states = self._walk(stmt.body, states)
            handler_out: list[_RefState] = []
            for handler in stmt.handlers:
                handler_out.extend(
                    self._walk(handler.body, [st.copy() for st in states])
                )
            states = self._walk(stmt.orelse, states)
            states = self._walk(stmt.finalbody, states + handler_out)
            return states
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for st in states:
                for item in stmt.items:
                    if self._ref_mentions(item.context_expr, st.aliases):
                        st.consumed = True
            return self._walk(stmt.body, states)
        if isinstance(stmt, ast.Assign):
            for st in states:
                if self._alias_source(stmt.value, st.aliases):
                    names = {
                        t.id for t in stmt.targets if isinstance(t, ast.Name)
                    }
                    if names:
                        st.aliases = st.aliases | frozenset(names)
                        continue
                if self._stores_ref(stmt, st.aliases):
                    st.consumed = True
                elif self._call_consumes(stmt.value, st.aliases):
                    st.consumed = True
                # rebinding an alias name to something else sheds it
                rebound = {
                    t.id
                    for t in stmt.targets
                    if isinstance(t, ast.Name) and t.id in st.aliases
                }
                if rebound and not self._alias_source(stmt.value, st.aliases):
                    st.aliases = st.aliases - frozenset(rebound)
            return states
        if isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            for st in states:
                if stmt.value is not None and (
                    self._stores_ref(stmt, st.aliases)
                    or self._call_consumes(stmt.value, st.aliases)
                ):
                    st.consumed = True
            return states
        if isinstance(stmt, ast.Expr):
            for st in states:
                if self._call_consumes(stmt.value, st.aliases):
                    st.consumed = True
            return states
        if isinstance(stmt, ast.Delete):
            for st in states:
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id in st.aliases:
                        st.consumed = True
                    elif isinstance(target, ast.Subscript) and self._ref_mentions(
                        target.slice, st.aliases
                    ):
                        st.consumed = True
            return states
        if isinstance(stmt, ast.Match):
            out = []
            for st in states:
                observed = self._ref_mentions(stmt.subject, st.aliases)
                entry_guard = st.guard + 1 if observed else st.guard
                for case in stmt.cases:
                    entry = _RefState(st.aliases, st.consumed, entry_guard, st.is_self)
                    for survivor in self._walk(case.body, [entry]):
                        survivor.guard = st.guard
                        out.append(survivor)
                out.append(st)
            return out
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for st in states:
                if self._ref_mentions(stmt, st.aliases):
                    st.consumed = True  # captured by a nested def
            return states
        return states

    def _stores_ref(
        self, stmt: ast.Assign | ast.AugAssign | ast.AnnAssign, aliases: frozenset[str]
    ) -> bool:
        """The reference flows into a store: attribute/subscript target,
        subscript key, or a composite value (tuple, RefInfo wrap)."""
        if stmt.value is not None and self._ref_mentions(stmt.value, aliases):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript, ast.Tuple)):
                    return True
            # plain Name target handled by the alias logic in _step
            return not isinstance(stmt.value, (ast.Name, ast.Attribute))
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Subscript) and self._ref_mentions(
                    node.slice, aliases
                ):
                    return True
        return False
