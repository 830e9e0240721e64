"""REP302 — constant-time comparison of secret-dependent bytes.

Inside :mod:`repro.crypto`, tag/digest/padding bytes must be compared
through :func:`~repro.crypto.encoding.constant_time_equal`; a raw
``==`` is an early-exit timing oracle (the discipline
``docs/static-analysis.md`` cross-references from the paper's
embedded-implementation setting). The rule found three such oracles:
the RFC 3394 unwrap integrity check, PKCS#7 pad validation, and the
EMSA-PSS final hash comparison.
"""

import ast
import re
from typing import Iterator

from .base import RawFinding, Rule

#: Calls that evidently return bytes (digest/MAC/codec outputs).
_BYTES_RETURNING = frozenset({
    "sha1", "hmac_sha1", "mgf1", "kdf2", "wrap", "unwrap", "bytes",
    "bytearray", "encrypt_block", "decrypt_block", "decrypt_blocks",
    "i2osp",
})

#: Names that conventionally hold digest/tag/IV byte strings.
_BYTES_NAMES = re.compile(
    r"(?:^|_)(?:iv|icv|tag|mac|digest|hash|salt|pad|padding|mask|"
    r"signature|sig|key|kek)(?:_|$)")


class ConstantTimeCompareRule(Rule):
    """REP302: no ``==``/``!=`` on byte strings inside repro.crypto."""

    id = "REP302"
    title = ("variable-time ==/!= on digest/tag/padding bytes in "
             "repro.crypto; use constant_time_equal")
    default_scopes = ("repro.crypto",)

    @staticmethod
    def _excluded(node) -> bool:
        """Operand shapes that are evidently not byte-string values."""
        if isinstance(node, ast.Constant) \
                and not isinstance(node.value, bytes):
            return True
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Name) \
                and node.func.id == "len":
            return True
        if isinstance(node, ast.BinOp):
            return True
        if isinstance(node, ast.Attribute):
            return True
        return False

    @staticmethod
    def _bytes_evidence(node) -> bool:
        """Operand shapes that evidently produce byte strings."""
        if isinstance(node, ast.Constant) \
                and isinstance(node.value, bytes):
            return True
        if isinstance(node, ast.Subscript) \
                and isinstance(node.slice, ast.Slice):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            return name in _BYTES_RETURNING
        if isinstance(node, ast.Name):
            return bool(_BYTES_NAMES.search(node.id.lower()))
        return False

    def check(self, ctx, project) -> Iterator[RawFinding]:
        for scope_node, compare in ctx.compares_with_function():
            if scope_node == "constant_time_equal":
                continue
            if len(compare.ops) != 1 or not isinstance(
                    compare.ops[0], (ast.Eq, ast.NotEq)):
                continue
            operands = (compare.left, compare.comparators[0])
            if any(self._excluded(op) for op in operands):
                continue
            if any(self._bytes_evidence(op) for op in operands):
                yield self.finding(
                    compare, "==/!= on byte strings is an early-exit "
                             "timing oracle; use constant_time_equal")


RULES = (ConstantTimeCompareRule,)
