"""Use-case policy: schemas, exposure gates, token assignment, fee ledger."""

from __future__ import annotations

import random
import re

import pytest

from provledger import (
    AssignmentStrategy,
    Context,
    ContextSchema,
    ExposureFlags,
    UseCasePolicy,
    policy_from_dict,
)
from provledger.errors import (
    ConfigInvalidError,
    InsufficientFeeError,
    InvalidInputError,
    NotAuthorizedError,
    NotWhitelistedError,
    PolicyForbiddenError,
    RecordInvalidatedError,
    SchemaViolationError,
    TokenNotFoundError,
)
from support import ALICE, BOB, CAROL, MALLORY, fee_policy, layer, open_policy, whitelist_policy


# --- token assignment ---------------------------------------------------------

def test_open_assignment_counts_up():
    stack = layer(open_policy())
    assert stack.request_token(ALICE) == 1
    assert stack.request_token(BOB) == 2
    assert stack.tokens.owner_of(1) == ALICE
    assert stack.tokens.owner_of(2) == BOB


def test_fee_assignment_rejects_low_payment():
    stack = layer(fee_policy(price=5, initial_balance=20))
    with pytest.raises(InsufficientFeeError):
        stack.request_token(ALICE, payment=3)


def test_fee_assignment_charges_price_not_payment():
    stack = layer(fee_policy(price=5, initial_balance=20))
    token = stack.request_token(ALICE, payment=9)
    assert stack.tokens.owner_of(token) == ALICE
    assert stack.balance_of(ALICE) == 15
    assert stack.treasury == 5


def test_fee_assignment_requires_balance():
    stack = layer(fee_policy(price=5, initial_balance=12))
    stack.request_token(ALICE, payment=5)
    stack.request_token(ALICE, payment=5)
    with pytest.raises(InsufficientFeeError):
        stack.request_token(ALICE, payment=5)  # only 2 left


def test_fee_conservation_over_random_ops():
    rng = random.Random(11)
    stack = layer(fee_policy(price=3, initial_balance=7))
    clients = [ALICE, BOB, CAROL, MALLORY]
    for _ in range(200):
        client = rng.choice(clients)
        try:
            stack.request_token(client, payment=rng.randint(0, 6))
        except InsufficientFeeError:
            pass
        balances = sum(stack.snapshot()["balances"].values())
        assert balances + stack.treasury == stack.seeded_total


def test_whitelist_assignment():
    stack = layer(whitelist_policy(admin=CAROL, members=[ALICE]))
    assert stack.request_token(ALICE) == 1
    with pytest.raises(NotWhitelistedError):
        stack.request_token(BOB)
    stack.whitelist_add(CAROL, BOB)
    assert stack.request_token(BOB) == 2
    with pytest.raises(NotAuthorizedError):
        stack.whitelist_add(ALICE, MALLORY)


def test_whitelist_removal_keeps_existing_tokens_usable():
    """Replay a full history and confirm token ops are unaffected by
    membership changes after minting."""
    stack = layer(whitelist_policy(admin=CAROL, members=[ALICE]))
    token = stack.request_token(ALICE)
    stack.whitelist_remove(CAROL, ALICE)
    with pytest.raises(NotWhitelistedError):
        stack.request_token(ALICE)
    # existing token still transfers and still accepts records
    stack.tokens.transfer(ALICE, ALICE, BOB, token)
    assert stack.tokens.owner_of(token) == BOB
    prov_id = stack.provenance.create_provenance(BOB, token, [], Context({"agent": "b"}))
    assert stack.provenance.records.get_record(prov_id).token_id == token


def test_whitelist_ops_without_admin_policy():
    stack = layer(open_policy())
    with pytest.raises(NotAuthorizedError):
        stack.whitelist_add(ALICE, BOB)


# --- schema validation -----------------------------------------------------------

VACCINE_SCHEMA = ContextSchema(
    name="vaccine",
    required=frozenset({"agent", "time", "temperature", "location"}),
    optional=frozenset({"unit"}),
)


def vaccine_stack():
    return layer(
        UseCasePolicy(
            schema=VACCINE_SCHEMA,
            exposure=ExposureFlags(True, True),
            assignment=AssignmentStrategy("open"),
        )
    )


def full_context():
    return Context(
        {"agent": "rfid1", "time": "5am", "temperature": "4C", "location": "vienna"}
    )


def test_schema_missing_required_key():
    stack = vaccine_stack()
    token = stack.request_token(ALICE)
    incomplete = Context({"agent": "rfid1", "time": "5am", "location": "vienna"})
    with pytest.raises(SchemaViolationError):
        stack.create_provenance_checked(ALICE, token, [], incomplete)


def test_schema_full_context_accepted():
    stack = vaccine_stack()
    token = stack.request_token(ALICE)
    prov_id = stack.create_provenance_checked(ALICE, token, [], full_context())
    assert stack.provenance.records.get_record(prov_id).context == full_context()


def test_schema_extra_key_rejected():
    stack = vaccine_stack()
    token = stack.request_token(ALICE)
    extra = Context(
        {
            "agent": "a",
            "time": "5am",
            "temperature": "4C",
            "location": "vienna",
            "color": "red",
        }
    )
    with pytest.raises(SchemaViolationError):
        stack.create_provenance_checked(ALICE, token, [], extra)


def test_update_gate_validates_schema():
    stack = vaccine_stack()
    token = stack.request_token(ALICE)
    prov_id = stack.create_provenance_checked(ALICE, token, [], full_context())
    with pytest.raises(SchemaViolationError):
        stack.gate_update(ALICE, prov_id, Context({"agent": "only"}))


def test_schema_soundness_recheck():
    """Everything stored under a schema policy re-validates offline."""
    stack = vaccine_stack()
    token = stack.request_token(ALICE)
    stack.create_provenance_checked(ALICE, token, [], full_context())
    stack.create_provenance_checked(
        ALICE, token, [1], Context(dict(full_context().as_dict(), unit="celsius"))
    )
    records = stack.provenance.records
    assert records.record_count() == 2
    for prov_id in (1, 2):
        VACCINE_SCHEMA.validate(records.get_record(prov_id).context)


# --- exposure gates ------------------------------------------------------------

def test_gate_invalidate_hidden_beats_ownership():
    stack = layer(open_policy(allow_invalidate=False))
    token = stack.request_token(ALICE)
    prov_id = stack.provenance.create_provenance(ALICE, token, [], Context({"agent": "a"}))
    with pytest.raises(PolicyForbiddenError):
        stack.gate_invalidate(ALICE, prov_id)  # even the owner is refused
    with pytest.raises(PolicyForbiddenError):
        stack.gate_invalidate(MALLORY, prov_id)


def test_gate_update_exposed_owner_succeeds():
    stack = layer(open_policy(allow_update=True))
    token = stack.request_token(ALICE)
    prov_id = stack.provenance.create_provenance(ALICE, token, [], Context({"agent": "a"}))
    stack.gate_update(ALICE, prov_id, Context({"agent": "b"}))
    assert stack.provenance.records.get_record(prov_id).context == Context({"agent": "b"})


def test_gate_error_precedence_matrix():
    """Exposure precedes but never replaces the authorization check."""
    for allow in (False, True):
        for caller, expected in ((ALICE, None), (BOB, NotAuthorizedError)):
            stack = layer(open_policy(allow_update=allow))
            token = stack.request_token(ALICE)
            prov_id = stack.provenance.create_provenance(
                ALICE, token, [], Context({"agent": "a"})
            )
            if not allow:
                with pytest.raises(PolicyForbiddenError):
                    stack.gate_update(caller, prov_id, Context({"agent": "x"}))
            elif expected is None:
                stack.gate_update(caller, prov_id, Context({"agent": "x"}))
            else:
                with pytest.raises(expected):
                    stack.gate_update(caller, prov_id, Context({"agent": "x"}))


def test_single_fault_error_order_for_create():
    """Each single-fault input maps to the first failing check in the fixed
    order: token existence, authorization, input validity, schema."""
    def fresh():
        stack = vaccine_stack()
        token = stack.request_token(ALICE)
        good_input = stack.create_provenance_checked(ALICE, token, [], full_context())
        return stack, token, good_input

    stack, token, good = fresh()
    with pytest.raises(TokenNotFoundError):
        stack.create_provenance_checked(ALICE, 99, [good], full_context())

    stack, token, good = fresh()
    with pytest.raises(NotAuthorizedError):
        stack.create_provenance_checked(MALLORY, token, [good], full_context())

    stack, token, good = fresh()
    with pytest.raises(InvalidInputError):
        stack.create_provenance_checked(ALICE, token, [77], full_context())

    stack, token, good = fresh()
    with pytest.raises(SchemaViolationError):
        stack.create_provenance_checked(ALICE, token, [good], Context({"agent": "x"}))


def test_multi_fault_error_order_for_create():
    """With several faults at once the earliest check in the order wins."""
    stack = vaccine_stack()
    token = stack.request_token(ALICE)
    bad_context = Context({"agent": "x"})
    # missing token beats bad schema and bad caller
    with pytest.raises(TokenNotFoundError):
        stack.create_provenance_checked(MALLORY, 99, [55], bad_context)
    # bad caller beats bad inputs and bad schema
    with pytest.raises(NotAuthorizedError):
        stack.create_provenance_checked(MALLORY, token, [55], bad_context)
    # bad inputs beat bad schema
    with pytest.raises(InvalidInputError):
        stack.create_provenance_checked(ALICE, token, [55], bad_context)


def test_create_validates_once(monkeypatch):
    """Checked creation runs the creation preconditions exactly once."""
    from provledger.provenance import ProvenanceLayer

    calls = []
    real_validate = ProvenanceLayer.validate_create

    def counting(self, *args):
        calls.append(1)
        return real_validate(self, *args)

    monkeypatch.setattr(ProvenanceLayer, "validate_create", counting)
    stack = vaccine_stack()
    token = stack.request_token(ALICE)
    stack.create_provenance_checked(ALICE, token, [], full_context())
    assert len(calls) == 1
    with pytest.raises(SchemaViolationError):
        stack.create_provenance_checked(ALICE, token, [], Context({"agent": "x"}))
    assert len(calls) == 2


def test_update_error_order_includes_status():
    stack = vaccine_stack()
    token = stack.request_token(ALICE)
    prov_id = stack.create_provenance_checked(ALICE, token, [], full_context())
    stack.gate_invalidate(ALICE, prov_id)
    # invalidated status is detected before the (also bad) schema
    with pytest.raises(RecordInvalidatedError):
        stack.gate_update(ALICE, prov_id, Context({"agent": "x"}))


# --- policy parsing -----------------------------------------------------------

def test_policy_wire_roundtrip():
    policy = whitelist_policy(admin=CAROL, members=[ALICE, BOB])
    again = policy_from_dict(policy.as_dict())
    assert again == policy
    assert again.digest() == policy.digest()


def test_policy_parsing_rejects_bad_shapes():
    with pytest.raises(ConfigInvalidError):
        policy_from_dict([])
    with pytest.raises(ConfigInvalidError):
        policy_from_dict({"schema": {"name": "x"}, "assignment": {"type": "fee"}})
    with pytest.raises(ConfigInvalidError):
        policy_from_dict({"schema": {"name": "x"}, "assignment": {"type": "whitelist"}})
    with pytest.raises(ConfigInvalidError):
        policy_from_dict({"schema": {"name": "x"}, "assignment": {"type": "open", "price": 3}})
    with pytest.raises(ConfigInvalidError):
        ContextSchema(name="x", required=frozenset({"a"}), optional=frozenset({"a"}))
    # no silent coercion: "false" is not a boolean, 5 is not a name
    for key in ("allowUpdate", "allowInvalidate"):
        with pytest.raises(ConfigInvalidError):
            policy_from_dict({"schema": {"name": "x"}, "exposure": {key: "false"}})
    for name in (5, ""):
        with pytest.raises(ConfigInvalidError):
            policy_from_dict({"schema": {"name": name}})
    schema = {"name": "x"}
    whitelist = {"type": "whitelist", "admin": "carol", "members": "alice"}
    for data, message in (
        ({"schema": schema, "assignment": {"type": "auction"}}, "unknown assignment kind 'auction'"),
        ({"schema": dict(schema, required="agent")}, "schema.required must be a list of strings"),
        ({"schema": schema, "exposure": []}, "policy exposure must be an object"),
        ({"schema": schema, "assignment": {}}, "policy assignment requires a type"),
        ({"schema": schema, "assignment": whitelist}, "assignment.members must be a list"),
        # the parser checks shapes only; each kind's fields are the constructor's rule
        (
            {"schema": schema, "assignment": {"type": "open", "price": 3}},
            "open assignment takes no price",
        ),
        (
            {"schema": schema, "assignment": {"type": "whitelist"}},
            "whitelist assignment requires an admin",
        ),
        (
            {"schema": schema, "assignment": {"type": "fee", "price": 5, "admin": "carol"}},
            "fee assignment takes no admin or members",
        ),
    ):
        with pytest.raises(ConfigInvalidError, match=f"^{re.escape(message)}$"):
            policy_from_dict(data)
