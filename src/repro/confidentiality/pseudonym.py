"""Pseudonymisation (Q3).

§2 names "polymorphic encryption and pseudonymization" as the security
half of the confidentiality question.  The pseudonymiser replaces
IDENTIFIER columns with keyed HMAC tokens: consistent within a key
(joins still work), unlinkable across keys (a new key issues a fresh
pseudonym universe — the practical core of "polymorphic" schemes), and
irreversible without the key.
"""

from __future__ import annotations

import hashlib
import secrets

from repro.data.schema import ColumnRole, categorical
from repro.data.table import Table
from repro.exceptions import DataError


#: SHA-256's block size and the RFC 2104 pads, as byte translations.
_BLOCK = 64
_IPAD = bytes(byte ^ 0x36 for byte in range(256))
_OPAD = bytes(byte ^ 0x5C for byte in range(256))


class Pseudonymizer:
    """Keyed, deterministic identifier replacement.

    Parameters
    ----------
    key:
        Secret bytes; omit to generate a fresh random key (kept on the
        instance so the same run stays consistent).
    token_length:
        Hex characters retained per pseudonym (collisions become likely
        only beyond ~16^(length/2) identities).
    """

    def __init__(self, key: bytes | None = None, token_length: int = 16):
        if token_length < 8 or token_length > 64:
            raise DataError("token_length must be in [8, 64]")
        self._key = key if key is not None else secrets.token_bytes(32)
        self.token_length = token_length

    def pseudonym(self, value: object) -> str:
        """The stable token for one identifier value."""
        return self._tokenizer()(value)

    def _tokenizer(self):
        """A token function over precomputed HMAC-SHA256 key states.

        HMAC (RFC 2104) is ``H((K ^ opad) || H((K ^ ipad) || m))`` with
        the key zero-padded to the 64-byte block (hashed first if
        longer).  The two keyed prefixes are absorbed once here, so a
        column costs two ``copy()``-and-finish steps per value instead
        of a fresh ``hmac.new``; tokens equal ``hmac.new``'s digests.
        """
        key = bytes(memoryview(self._key))
        if len(key) > _BLOCK:
            key = hashlib.sha256(key).digest()
        key = key.ljust(_BLOCK, b"\x00")
        inner = hashlib.sha256(key.translate(_IPAD))
        outer = hashlib.sha256(key.translate(_OPAD))
        length = self.token_length

        def token(value: object) -> str:
            digest = inner.copy()
            digest.update(str(value).encode("utf-8"))
            mac = outer.copy()
            mac.update(digest.digest())
            return f"p_{mac.hexdigest()[:length]}"

        return token

    def pseudonymize_column(self, table: Table, name: str) -> Table:
        """Replace one column's values with pseudonyms (keeps the role)."""
        spec = table.schema[name]
        token = self._tokenizer()
        tokens = [token(value) for value in table.column(name)]
        return table.with_column(
            categorical(name, role=spec.role,
                        description=f"pseudonymized {spec.description or name}"),
            tokens,
        )

    def pseudonymize(self, table: Table,
                     columns: list[str] | None = None) -> Table:
        """Replace every IDENTIFIER column (or the named ones)."""
        names = columns or table.schema.identifier_names
        if not names:
            raise DataError("no identifier columns declared or named")
        result = table
        for name in names:
            result = self.pseudonymize_column(result, name)
        return result

    def rekeyed(self) -> "Pseudonymizer":
        """A new pseudonym universe: same data, unlinkable tokens."""
        return Pseudonymizer(key=secrets.token_bytes(32),
                             token_length=self.token_length)


def drop_identifiers(table: Table) -> Table:
    """Remove IDENTIFIER columns outright (the bluntest instrument)."""
    names = table.schema.identifier_names
    if not names:
        return table
    return table.drop(names)


def redact_for_release(table: Table,
                       pseudonymizer: Pseudonymizer | None = None) -> Table:
    """Standard release hygiene: pseudonymise identifiers, drop METADATA.

    METADATA columns hold generator oracles (ground-truth latents) that
    must never ship with a released dataset.
    """
    result = table
    metadata = [
        spec.name for spec in table.schema if spec.role is ColumnRole.METADATA
    ]
    if metadata:
        result = result.drop(metadata)
    if result.schema.identifier_names:
        worker = pseudonymizer or Pseudonymizer()
        result = worker.pseudonymize(result)
    return result
