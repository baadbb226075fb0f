"""Ownership layer: one non-fungible token per data point.

A token is the entry ticket for writing provenance: only its owner or a
client the owner approved may create records for the data point it
identifies. The surface is a reduced non-fungible-token interface
(mint / owner_of / exists / transfer / approve); minting is restricted to
the policy layer, which controls assignment. The registry assigns each
minted token the next id: the n-th token minted has id n.
"""

from __future__ import annotations

import functools
import hashlib
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

from .errors import NotAuthorizedError, TokenNotFoundError, ZeroAddressError
from .statehash import WriteHook, ignore_write

ADDRESS_BYTES = 32
ADDRESS_MEMO_SIZE = 1024  # addresses held by ClientId.from_hex: ~300 kB

_HEX_BODY = re.compile(f"[0-9a-f]{{{ADDRESS_BYTES * 2}}}")
_ZERO_RAW = bytes(ADDRESS_BYTES)


def check_hex_address(text: object) -> str:
    """``text`` if it is a 0x-prefixed lowercase hex address, as
    :meth:`ClientId.from_hex` parses it; raises ``ValueError`` otherwise."""
    if type(text) is not str or not text.startswith("0x"):
        raise ValueError(f"client address must start with 0x, got {text!r}")
    if not _HEX_BODY.fullmatch(text, 2):
        raise ValueError(f"client address must be {ADDRESS_BYTES * 2} lowercase hex chars")
    return text


@dataclass(frozen=True, order=True, slots=True)
class ClientId:
    """32-byte client address, displayed as 0x-prefixed lowercase hex."""

    raw: bytes

    def __post_init__(self):
        if type(self.raw) is not bytes or len(self.raw) != ADDRESS_BYTES:
            raise ValueError(f"client address must be {ADDRESS_BYTES} bytes")

    # on ``raw`` itself: the generated pair builds a one-field tuple per call
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.raw == other.raw
        return NotImplemented

    def __hash__(self):
        return hash(self.raw)

    @classmethod
    def from_hex(cls, text: str) -> "ClientId":
        """The address ``text`` names, memoised; a refused text is never held."""
        if type(text) is not str:  # before the memo, which would hash it
            check_hex_address(text)
        return _address(text)

    @classmethod
    def from_checked_hex(cls, text: str) -> "ClientId":
        """The address of a ``text`` that :func:`check_hex_address` already
        accepted, parsed without checking it again."""
        return cls(bytes.fromhex(text[2:]))

    @classmethod
    def from_alias(cls, alias: str) -> "ClientId":
        """Deterministic address for a human-readable alias (digest of the alias)."""
        if not alias:
            raise ValueError("alias must be non-empty")
        return cls(hashlib.sha256(alias.encode("utf-8")).digest())

    @property
    def hex(self) -> str:
        return "0x" + self.raw.hex()

    @property
    def is_zero(self) -> bool:
        return self.raw == _ZERO_RAW

    def __repr__(self) -> str:
        return f"ClientId({self.hex})"


ZERO_CLIENT = ClientId(_ZERO_RAW)


@functools.lru_cache(maxsize=ADDRESS_MEMO_SIZE)
def _address(text: str) -> ClientId:
    return ClientId(bytes.fromhex(check_hex_address(text)[2:]))


class Token(NamedTuple):
    """A token's state; a write stores a new one, leaving the old one intact."""

    id: int
    owner: ClientId
    approved: frozenset[ClientId] = frozenset()

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "owner": self.owner.hex,
            "approved": sorted(client.hex for client in self.approved),
        }


class TokenRegistry:
    """Token ownership state: exactly one owner per minted token.

    Minting requires the assignment key held by the policy layer; transfer
    and approve authenticate through the explicit ``caller`` argument. Each
    write that changes a token is reported to ``on_write`` as a ``tokens`` leaf.
    """

    def __init__(self, mint_key: object, on_write: WriteHook = ignore_write):
        self._mint_key = mint_key
        self._on_write = on_write
        self._tokens: dict[int, Token] = {}

    def mint(self, key: object, to: ClientId) -> int:
        """Mint a token to ``to`` under the next id, the token count plus
        one, and return that id."""
        if key is not self._mint_key:
            raise PermissionError("minting requires the assignment key")
        if to.is_zero:
            raise ZeroAddressError("cannot mint to the zero address")
        token_id = len(self._tokens) + 1
        token = self._tokens[token_id] = Token(token_id, to)
        self._on_write("tokens", token_id, None, token.as_dict())
        return token_id

    def restore(self, key: object, items: Iterable[Mapping]) -> None:
        """Fill an empty registry from :meth:`snapshot`-shaped ``items``,
        without reporting a write and without checking them: the caller
        proves them with the state digest (see
        :meth:`~provledger.ledger.Ledger.restore`). The n-th item becomes
        token n."""
        if key is not self._mint_key:
            raise PermissionError("minting requires the assignment key")
        tokens = self._tokens
        client = ClientId.from_hex
        for token_id, item in enumerate(items, start=1):
            tokens[token_id] = Token(
                token_id, client(item["owner"]), frozenset(map(client, item["approved"]))
            )

    def exists(self, token_id: int) -> bool:
        return token_id in self._tokens

    def _get(self, token_id: int) -> Token:
        token = self._tokens.get(token_id)
        if token is None:
            raise TokenNotFoundError(f"token {token_id} not found")
        return token

    def owner_of(self, token_id: int) -> ClientId:
        return self._get(token_id).owner

    def transfer(self, caller: ClientId, from_: ClientId, to: ClientId, token_id: int) -> None:
        """Move ownership; clears all approvals granted by the previous owner."""
        token = self._get(token_id)
        if token.owner != from_:
            raise NotAuthorizedError(f"{from_.hex} does not own token {token_id}")
        if caller != token.owner and caller not in token.approved:
            raise NotAuthorizedError(f"{caller.hex} may not transfer token {token_id}")
        if to.is_zero:
            raise ZeroAddressError("cannot transfer to the zero address")
        if to != token.owner or token.approved:
            new = self._tokens[token_id] = Token(token_id, to)
            self._on_write("tokens", token_id, token.as_dict, new.as_dict())

    def approve(self, caller: ClientId, operator: ClientId, token_id: int) -> None:
        token = self._get(token_id)
        if caller != token.owner:
            raise NotAuthorizedError(f"{caller.hex} does not own token {token_id}")
        if operator not in token.approved:
            new = self._tokens[token_id] = Token(token_id, token.owner, token.approved | {operator})
            self._on_write("tokens", token_id, token.as_dict, new.as_dict())

    def is_authorized(self, caller: ClientId, token_id: int) -> bool:
        """True iff caller is the owner or approved for the token."""
        token = self._get(token_id)
        return caller == token.owner or caller in token.approved

    def token_count(self) -> int:
        return len(self._tokens)

    def snapshot(self) -> list[dict]:
        return [token.as_dict() for token in self._tokens.values()]
