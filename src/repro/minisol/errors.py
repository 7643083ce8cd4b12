"""The common base of MiniSol's compile errors."""


class MiniSolError(ValueError):
    """Source that does not compile: a lexical, syntax, semantic or
    code-generation error.

    A :class:`ValueError`, because a bad source is always the caller's
    input: the HTTP daemon answers it with a 400 and the CLI with a usage
    error, never an internal error.
    """


class NestingError(MiniSolError):
    """Source nested deeper than the recursive-descent compiler can follow
    (parse, check and codegen all recurse on the syntax tree)."""
