"""MiniSol compilation driver.

``compile_source`` runs the full pipeline — lex, parse, check, generate — and
returns one :class:`CompiledContract` per contract (or a single one when a
``contract_name`` is given).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.minisol import ast_nodes as ast
from repro.minisol.abi import encode_args, encode_call
from repro.minisol.checker import BUILTINS, CheckError, check
from repro.minisol.codegen import CodegenError, ContractCodegen
from repro.minisol.errors import NestingError
from repro.minisol.parser import parse


@dataclass
class CompiledContract:
    """A compiled MiniSol contract, ready to deploy on the chain simulator."""

    name: str
    runtime: bytes
    init: bytes
    ast: ast.Contract
    source: str
    selectors: Dict[str, str] = field(default_factory=dict)  # signature -> name

    def init_with_args(self, *args: int) -> bytes:
        """Init code with ABI-encoded constructor arguments appended."""
        expected = len(self.ast.constructor.params) if self.ast.constructor else 0
        if len(args) != expected:
            raise ValueError(
                "constructor of %s expects %d argument(s), got %d"
                % (self.name, expected, len(args))
            )
        return self.init + encode_args(args)

    def calldata(self, function_name: str, *args: int) -> bytes:
        """Calldata invoking ``function_name`` with ``args``."""
        fn = self.ast.function(function_name)
        if not fn.is_public:
            raise ValueError("function %r is not public" % function_name)
        if len(args) != len(fn.params):
            raise ValueError(
                "%s expects %d argument(s), got %d"
                % (fn.signature, len(fn.params), len(args))
            )
        return encode_call(fn.signature, *args)

    @property
    def public_functions(self) -> List[ast.FunctionDef]:
        return [fn for fn in self.ast.functions if fn.is_public]


def _check_no_recursion(contract: ast.Contract) -> None:
    """Reject call-graph cycles: MiniSol frames are statically allocated."""
    graph: Dict[str, Set[str]] = {}
    defined_functions = {fn.name for fn in contract.functions}

    def callees(stmt_or_expr) -> Set[str]:
        found: Set[str] = set()

        def visit_expr(expr: ast.Expr) -> None:
            if isinstance(expr, ast.CallExpr):
                if expr.name in defined_functions or expr.name not in BUILTINS:
                    found.add(expr.name)
                for arg in expr.args:
                    visit_expr(arg)
            elif isinstance(expr, ast.BinaryOp):
                visit_expr(expr.left)
                visit_expr(expr.right)
            elif isinstance(expr, ast.UnaryOp):
                visit_expr(expr.operand)
            elif isinstance(expr, ast.IndexAccess):
                visit_expr(expr.base)
                visit_expr(expr.index)
            elif isinstance(expr, ast.ExternalCall):
                visit_expr(expr.target)
                if expr.value is not None:
                    visit_expr(expr.value)
                for arg in expr.args:
                    visit_expr(arg)

        def visit_stmt(stmt: ast.Stmt) -> None:
            if isinstance(stmt, ast.Block):
                for child in stmt.statements:
                    visit_stmt(child)
            elif isinstance(stmt, ast.VarDecl) and stmt.initializer is not None:
                visit_expr(stmt.initializer)
            elif isinstance(stmt, ast.Assign):
                visit_expr(stmt.target)
                visit_expr(stmt.value)
            elif isinstance(stmt, ast.If):
                visit_expr(stmt.condition)
                visit_stmt(stmt.then_branch)
                if stmt.else_branch is not None:
                    visit_stmt(stmt.else_branch)
            elif isinstance(stmt, ast.While):
                visit_expr(stmt.condition)
                visit_stmt(stmt.body)
            elif isinstance(stmt, ast.Require):
                visit_expr(stmt.condition)
            elif isinstance(stmt, ast.Emit):
                for arg in stmt.args:
                    visit_expr(arg)
            elif isinstance(stmt, ast.Return) and stmt.value is not None:
                visit_expr(stmt.value)
            elif isinstance(stmt, ast.ExprStmt):
                visit_expr(stmt.expr)

        visit_stmt(stmt_or_expr)
        return found

    for fn in contract.functions:
        graph[fn.name] = callees(fn.body)
        for invocation in fn.modifiers:
            for modifier in contract.modifiers:
                if modifier.name == invocation.name:
                    graph[fn.name] |= callees(modifier.body)
    if contract.constructor is not None:
        graph["constructor"] = callees(contract.constructor.body)

    # DFS cycle detection.
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {name: WHITE for name in graph}

    def dfs(name: str) -> None:
        color[name] = GRAY
        for callee in graph.get(name, ()):
            if callee not in graph:
                continue
            if color.get(callee, WHITE) == GRAY:
                raise CheckError(
                    "recursive call cycle through %r: MiniSol does not "
                    "support recursion (frames are statically allocated)" % callee
                )
            if color.get(callee, WHITE) == WHITE:
                dfs(callee)
        color[name] = BLACK

    for name in list(graph):
        if color[name] == WHITE:
            dfs(name)


def compile_contract(contract: ast.Contract, source: str = "") -> CompiledContract:
    """Generate code for a single checked contract AST."""
    _check_no_recursion(contract)
    codegen = ContractCodegen(contract)
    runtime = codegen.compile_runtime()
    init = codegen.compile_init(runtime)
    selectors = {fn.signature: fn.name for fn in contract.functions if fn.is_public}
    return CompiledContract(
        name=contract.name,
        runtime=runtime,
        init=init,
        ast=contract,
        source=source,
        selectors=selectors,
    )


def compile_source(source: str, contract_name: Optional[str] = None):
    """Compile MiniSol ``source``.

    Returns a single :class:`CompiledContract` when ``contract_name`` is given
    (or when the source holds exactly one contract); otherwise a dict mapping
    contract names to compiled contracts.  Source nested past the
    interpreter's recursion limit is a :class:`NestingError`.
    """
    try:
        program = check(parse(source))
        if not program.contracts:
            raise CheckError("no contracts in source")
        compiled = {
            contract.name: compile_contract(contract, source)
            for contract in program.contracts
        }
    except RecursionError:
        raise NestingError("source nested too deeply to compile") from None
    if contract_name is not None:
        try:
            return compiled[contract_name]
        except KeyError:
            raise CheckError("no contract named %r" % contract_name) from None
    if len(compiled) == 1:
        return next(iter(compiled.values()))
    return compiled
