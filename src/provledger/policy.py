"""Use-case policy layer: the customization surface on top of the generic layer.

A policy fixes three things at genesis: the context schema new records must
satisfy, which generic verbs (update / invalidate) are exposed at all, and
how tokens get assigned to clients (open, fee-based purchase, or an
admin-managed whitelist). Exactly one policy is active per ledger instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .canonical import UINT64_MAX, digest_of
from .errors import (
    ConfigInvalidError,
    InsufficientFeeError,
    NotAuthorizedError,
    NotWhitelistedError,
    PolicyForbiddenError,
    SchemaViolationError,
)
from .provenance import ProvenanceLayer
from .records import Context, RecordStore
from .statehash import WriteHook, ignore_write
from .tokens import ClientId, TokenRegistry

OPEN = "open"
FEE = "fee"
WHITELIST = "whitelist"


@dataclass(frozen=True)
class ContextSchema:
    """Closed-world key schema: required keys must be present, anything else
    must come from the optional set."""

    name: str
    required: frozenset[str]
    optional: frozenset[str] = frozenset()
    allowed: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if type(self.name) is not str or not self.name:
            raise ConfigInvalidError("schema name must be a non-empty string")
        if type(self.required) is not frozenset or type(self.optional) is not frozenset:
            raise ConfigInvalidError("schema required and optional keys must be frozensets")
        for key in self.required | self.optional:
            if type(key) is not str or not key:
                raise ConfigInvalidError(f"schema keys must be non-empty strings, got {key!r}")
        try:  # every digest of the policy hashes these texts' UTF-8 bytes
            "".join((self.name, *self.required, *self.optional)).encode("utf-8")
        except UnicodeEncodeError as exc:  # a lone surrogate
            raise ConfigInvalidError(
                f"schema name and keys are not UTF-8 text: {exc.reason}"
            ) from exc
        overlap = self.required & self.optional
        if overlap:
            raise ConfigInvalidError(f"schema keys both required and optional: {sorted(overlap)}")
        object.__setattr__(self, "allowed", self.required | self.optional)

    def validate(self, context: Context) -> None:
        keys = context.keys()
        if self.required <= keys <= self.allowed:
            return
        missing = self.required - keys
        if missing:
            raise SchemaViolationError(
                f"context missing required keys {sorted(missing)} for schema {self.name!r}"
            )
        extra = keys - self.allowed
        if extra:
            raise SchemaViolationError(
                f"context has keys {sorted(extra)} outside schema {self.name!r}"
            )


@dataclass(frozen=True)
class ExposureFlags:
    allow_update: bool = True
    allow_invalidate: bool = True

    def __post_init__(self):
        if type(self.allow_update) is not bool or type(self.allow_invalidate) is not bool:
            raise ConfigInvalidError("exposure flags must be booleans")


@dataclass(frozen=True)
class AssignmentStrategy:
    """How request_token assigns ownership.

    ``open`` mints to anyone, ``fee`` charges ``price`` from an internal
    balance ledger, ``whitelist`` restricts minting to members managed by a
    fixed admin. ``initial_balance`` is each client's balance until its first
    successful fee request, which credits it to the fee ledger.
    """

    kind: str
    price: int = 0
    admin: ClientId | None = None
    members: frozenset[ClientId] = frozenset()
    initial_balance: int = 0

    def __post_init__(self):
        if self.kind not in (OPEN, FEE, WHITELIST):
            raise ConfigInvalidError(f"unknown assignment kind {self.kind!r}")
        for label, value in (("price", self.price), ("initial balance", self.initial_balance)):
            if type(value) is not int or not 0 <= value <= UINT64_MAX:
                raise ConfigInvalidError(f"{label} must be an unsigned 64-bit integer")
        if self.admin is not None and type(self.admin) is not ClientId:
            raise ConfigInvalidError(f"assignment admin must be a ClientId, got {self.admin!r}")
        if type(self.members) is not frozenset or any(
            type(member) is not ClientId for member in self.members
        ):
            raise ConfigInvalidError("assignment members must be a frozenset of ClientId")
        if self.kind == FEE and self.price < 1:
            raise ConfigInvalidError("fee assignment requires price >= 1")
        if self.kind != FEE and self.price:
            raise ConfigInvalidError(f"{self.kind} assignment takes no price")
        if self.kind == WHITELIST and self.admin is None:
            raise ConfigInvalidError("whitelist assignment requires an admin")
        if self.kind != WHITELIST and (self.admin is not None or self.members):
            raise ConfigInvalidError(f"{self.kind} assignment takes no admin or members")


@dataclass(frozen=True)
class UseCasePolicy:
    schema: ContextSchema
    exposure: ExposureFlags = ExposureFlags()
    assignment: AssignmentStrategy = field(default_factory=lambda: AssignmentStrategy(OPEN))

    def as_dict(self) -> dict:
        data: dict = {
            "schema": {
                "name": self.schema.name,
                "required": sorted(self.schema.required),
                "optional": sorted(self.schema.optional),
            },
            "exposure": {
                "allowUpdate": self.exposure.allow_update,
                "allowInvalidate": self.exposure.allow_invalidate,
            },
            "assignment": {"type": self.assignment.kind},
        }
        assignment = data["assignment"]
        if self.assignment.kind == FEE:
            assignment["price"] = self.assignment.price
        if self.assignment.kind == WHITELIST:
            assignment["admin"] = self.assignment.admin.hex
            assignment["members"] = sorted(member.hex for member in self.assignment.members)
        if self.assignment.initial_balance:
            assignment["initialBalance"] = self.assignment.initial_balance
        return data

    def digest(self) -> str:
        return digest_of(self.as_dict())


def resolve_client(value: object, label: str) -> ClientId:
    """A client named by 0x-hex address or by alias, as policy files,
    scenario scripts and the CLI accept them."""
    if type(value) is not str or not value:
        raise ConfigInvalidError(f"{label} must be a non-empty string")
    try:
        if value.startswith("0x"):
            return ClientId.from_hex(value)
        return ClientId.from_alias(value)
    except ValueError as exc:
        raise ConfigInvalidError(f"bad {label} {value!r}: {exc}") from exc


def _reject_unknown_fields(data: dict, allowed: set[str], label: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ConfigInvalidError(f"unknown {label} fields: {sorted(unknown)}")


def policy_from_dict(data: object) -> UseCasePolicy:
    """Parse the policy definition format loaded at ledger genesis."""
    if not isinstance(data, dict):
        raise ConfigInvalidError("policy definition must be a JSON object")
    _reject_unknown_fields(data, {"schema", "exposure", "assignment"}, "policy")

    schema_data = data.get("schema")
    if not isinstance(schema_data, dict) or "name" not in schema_data:
        raise ConfigInvalidError("policy requires schema {name, required[], optional[]}")
    _reject_unknown_fields(schema_data, {"name", "required", "optional"}, "schema")
    for key_list in ("required", "optional"):
        value = schema_data.get(key_list, [])
        if not isinstance(value, list) or any(type(k) is not str for k in value):
            raise ConfigInvalidError(f"schema.{key_list} must be a list of strings")
    schema = ContextSchema(
        name=schema_data["name"],
        required=frozenset(schema_data.get("required", [])),
        optional=frozenset(schema_data.get("optional", [])),
    )

    exposure_data = data.get("exposure", {})
    if not isinstance(exposure_data, dict):
        raise ConfigInvalidError("policy exposure must be an object")
    _reject_unknown_fields(exposure_data, {"allowUpdate", "allowInvalidate"}, "exposure")
    exposure = ExposureFlags(
        allow_update=exposure_data.get("allowUpdate", True),
        allow_invalidate=exposure_data.get("allowInvalidate", True),
    )

    assignment_data = data.get("assignment", {"type": OPEN})
    if not isinstance(assignment_data, dict) or "type" not in assignment_data:
        raise ConfigInvalidError("policy assignment requires a type")
    # only shapes here: AssignmentStrategy checks which fields each kind takes
    _reject_unknown_fields(
        assignment_data, {"type", "price", "admin", "members", "initialBalance"}, "assignment"
    )
    admin = None
    if "admin" in assignment_data:  # a null admin is refused, not dropped
        admin = resolve_client(assignment_data["admin"], "assignment.admin")
    members = assignment_data.get("members", [])
    if not isinstance(members, list):
        raise ConfigInvalidError("assignment.members must be a list")
    assignment = AssignmentStrategy(
        assignment_data["type"],
        price=assignment_data.get("price", 0),
        admin=admin,
        members=frozenset(resolve_client(member, "assignment.member") for member in members),
        initial_balance=assignment_data.get("initialBalance", 0),
    )
    return UseCasePolicy(schema=schema, exposure=exposure, assignment=assignment)


class PolicyLayer:
    """Runtime enforcement of one use-case policy over the generic layer.

    Also owns, under fee assignment, the internal balance ledger (balances,
    treasury, and the cumulative seeded total for conservation checks). Each
    balance and whitelist write, including the policy's initial members, is
    reported to ``on_write`` as a ``balances`` or ``whitelist`` leaf.
    """

    def __init__(
        self,
        policy: UseCasePolicy,
        provenance: ProvenanceLayer,
        registry: TokenRegistry,
        mint_key: object,
        on_write: WriteHook = ignore_write,
    ):
        self.policy = policy
        self._provenance = provenance
        self._registry = registry
        self._mint_key = mint_key
        self._on_write = on_write
        # the policy is fixed at genesis, so its schema check is bound once
        self._schema_check = policy.schema.validate
        self._balances: dict[ClientId, int] = {}
        self._treasury = 0
        self._seeded_total = 0
        self._whitelist: set[ClientId] = set(policy.assignment.members)
        for member in self._whitelist:
            on_write("whitelist", member.hex, None, True)

    @classmethod
    def build(cls, policy: UseCasePolicy, on_write: WriteHook = ignore_write) -> "PolicyLayer":
        """Wire a fresh store/registry/provenance stack under this policy,
        every layer that stores facts reporting its writes to ``on_write``."""
        store_key = object()
        mint_key = object()
        store = RecordStore(store_key, on_write)
        registry = TokenRegistry(mint_key, on_write)
        provenance = ProvenanceLayer(store, registry, store_key)
        return cls(policy, provenance, registry, mint_key, on_write)

    def restore(self, snapshot: dict, client: Callable[[str], ClientId]) -> None:
        """Give this stack, fresh from :meth:`build`, the state of
        ``snapshot``, a :meth:`Ledger.state_snapshot`: the collections
        :meth:`snapshot` returns and the treasury and seeded total, with the
        addresses ``client`` builds from their texts. No write is reported.
        The next record and token ids follow from the restored collections.
        The treasury and the seeded total must be ``int``: the state digest
        writes each as its text, which a string of digits has too."""
        self._balances = {client(text): amount for text, amount in snapshot["balances"].items()}
        self._whitelist = set(map(client, snapshot["whitelist"]))
        self._treasury, self._seeded_total = snapshot["treasury"], snapshot["seededTotal"]
        if type(self._treasury) is not int or type(self._seeded_total) is not int:
            raise ValueError("the treasury and the seeded total must be integers")
        self._registry.restore(self._mint_key, snapshot["tokens"], client)
        self._provenance.restore(snapshot["records"])

    @property
    def provenance(self) -> ProvenanceLayer:
        return self._provenance

    @property
    def tokens(self) -> TokenRegistry:
        return self._registry

    @property
    def next_token_id(self) -> int:
        """The id the next minted token gets."""
        return self._registry.token_count() + 1

    @property
    def treasury(self) -> int:
        return self._treasury

    @property
    def seeded_total(self) -> int:
        return self._seeded_total

    def balance_of(self, client: ClientId) -> int:
        if client in self._balances:
            return self._balances[client]
        return self.policy.assignment.initial_balance

    def request_token(self, caller: ClientId, payment: int = 0) -> int:
        """Assign a fresh token to the caller, subject to the strategy.
        Every check runs before the first write."""
        assignment = self.policy.assignment
        if assignment.kind == FEE:
            if payment < assignment.price:
                raise InsufficientFeeError(
                    f"payment {payment} below token price {assignment.price}"
                )
            balance = self.balance_of(caller)
            if balance < assignment.price:
                raise InsufficientFeeError(
                    f"balance {balance} below token price {assignment.price}"
                )
        elif assignment.kind == WHITELIST:
            if caller not in self._whitelist:
                raise NotWhitelistedError(f"{caller.hex} is not on the whitelist")

        token_id = self._registry.mint(self._mint_key, caller)
        if assignment.kind == FEE:
            old = self._balances.get(caller)
            if old is None:
                self._seeded_total += balance  # the initial balance, credited now
            new = self._balances[caller] = balance - assignment.price
            self._on_write("balances", caller.hex, None if old is None else lambda: old, new)
            self._treasury += assignment.price
        return token_id

    def _require_admin(self, caller: ClientId) -> None:
        admin = self.policy.assignment.admin
        if admin is None or caller != admin:
            raise NotAuthorizedError(f"{caller.hex} is not the whitelist admin")

    def whitelist_add(self, caller: ClientId, member: ClientId) -> None:
        self._require_admin(caller)
        if member not in self._whitelist:
            self._whitelist.add(member)
            self._on_write("whitelist", member.hex, None, True)

    def whitelist_remove(self, caller: ClientId, member: ClientId) -> None:
        """Removal only blocks future token requests; minted tokens are untouched."""
        self._require_admin(caller)
        if member in self._whitelist:
            self._whitelist.remove(member)
            self._on_write("whitelist", member.hex, lambda: True, None)

    def create_provenance_checked(
        self, caller: ClientId, token_id: int, inputs: list[int], context: Context
    ) -> int:
        """Generic-layer creation with schema validation.

        Error order is fixed: token existence, authorization, input validity,
        then schema.
        """
        return self._provenance.create_provenance(
            caller, token_id, inputs, context, context_check=self._schema_check
        )

    def gate_update(self, caller: ClientId, prov_id: int, new_context: Context) -> None:
        if not self.policy.exposure.allow_update:
            raise PolicyForbiddenError("policy does not expose update")
        self._provenance.update_provenance(
            caller, prov_id, new_context, context_check=self._schema_check
        )

    def gate_invalidate(self, caller: ClientId, prov_id: int) -> None:
        if not self.policy.exposure.allow_invalidate:
            raise PolicyForbiddenError("policy does not expose invalidate")
        self._provenance.invalidate_provenance(caller, prov_id)

    def snapshot(self) -> dict:
        """The collections :meth:`restore` reads, as plain data: balances,
        records, tokens and whitelist. The ledger reads the scalars (next
        ids, treasury, seeded total) through properties."""
        return {
            "balances": {
                client.hex: amount for client, amount in sorted(self._balances.items())
            },
            "records": self._provenance.records.snapshot(),
            "tokens": self._registry.snapshot(),
            "whitelist": sorted(client.hex for client in self._whitelist),
        }
