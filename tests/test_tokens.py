"""Token registry: mint, ownership, transfer, approvals."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provledger import ClientId, TokenRegistry, ZERO_CLIENT
from provledger.errors import NotAuthorizedError, TokenNotFoundError, ZeroAddressError
from support import ALICE, BOB, CAROL


def registry_with_key():
    key = object()
    return TokenRegistry(key), key


def test_mint_and_read():
    registry, key = registry_with_key()
    assert registry.exists(1) is False
    assert registry.token_count() == 0
    assert registry.mint(key, ALICE) == 1
    assert registry.exists(1) is True
    assert registry.owner_of(1) == ALICE
    assert registry.token_count() == 1


def test_mint_zero_address():
    registry, key = registry_with_key()
    with pytest.raises(ZeroAddressError):
        registry.mint(key, ZERO_CLIENT)
    assert registry.token_count() == 0


def test_mint_requires_assignment_key():
    registry, _ = registry_with_key()
    with pytest.raises(PermissionError):
        registry.mint(object(), ALICE)
    assert registry.token_count() == 0


def test_owner_of_unminted():
    registry, _ = registry_with_key()
    with pytest.raises(TokenNotFoundError):
        registry.owner_of(9)


def test_transfer_by_owner():
    registry, key = registry_with_key()
    registry.mint(key, ALICE)
    registry.transfer(ALICE, ALICE, BOB, 1)
    assert registry.owner_of(1) == BOB


def test_transfer_unapproved_caller():
    registry, key = registry_with_key()
    registry.mint(key, ALICE)
    with pytest.raises(NotAuthorizedError):
        registry.transfer(CAROL, ALICE, BOB, 1)


def test_transfer_wrong_from():
    registry, key = registry_with_key()
    registry.mint(key, ALICE)
    with pytest.raises(NotAuthorizedError):
        registry.transfer(ALICE, BOB, CAROL, 1)


def test_transfer_to_zero_address():
    registry, key = registry_with_key()
    registry.mint(key, ALICE)
    with pytest.raises(ZeroAddressError):
        registry.transfer(ALICE, ALICE, ZERO_CLIENT, 1)


def test_self_transfer_allowed_and_clears_approvals():
    registry, key = registry_with_key()
    registry.mint(key, ALICE)
    registry.approve(ALICE, BOB, 1)
    registry.transfer(ALICE, ALICE, ALICE, 1)
    assert registry.owner_of(1) == ALICE
    assert registry.is_authorized(BOB, 1) is False


def test_approved_operator_can_transfer():
    registry, key = registry_with_key()
    registry.mint(key, ALICE)
    registry.approve(ALICE, BOB, 1)
    registry.transfer(BOB, ALICE, CAROL, 1)
    assert registry.owner_of(1) == CAROL


def test_approve_and_is_authorized():
    registry, key = registry_with_key()
    registry.mint(key, ALICE)
    registry.approve(ALICE, BOB, 1)
    assert registry.is_authorized(BOB, 1) is True
    assert registry.is_authorized(CAROL, 1) is False
    assert registry.is_authorized(ALICE, 1) is True


def test_approve_requires_ownership():
    registry, key = registry_with_key()
    registry.mint(key, ALICE)
    with pytest.raises(NotAuthorizedError):
        registry.approve(BOB, CAROL, 1)


def test_snapshot_export_shape():
    registry, key = registry_with_key()
    assert registry.mint(key, ALICE) == 1
    assert registry.mint(key, BOB) == 2
    registry.approve(BOB, CAROL, 2)
    exported = registry.snapshot()
    assert [item["id"] for item in exported] == [1, 2]
    assert all(set(item) == {"id", "owner", "approved"} for item in exported)
    assert [item["owner"] for item in exported] == [ALICE.hex, BOB.hex]
    assert exported[0]["approved"] == []
    assert exported[1]["approved"] == [CAROL.hex]


def test_client_id_formats():
    assert ALICE.hex.startswith("0x")
    assert len(ALICE.hex) == 66
    assert ClientId.from_hex(ALICE.hex) == ALICE
    assert ClientId.from_alias("alice") == ALICE
    with pytest.raises(ValueError):
        ClientId.from_hex("0x1234")
    with pytest.raises(ValueError):
        ClientId.from_hex(ALICE.hex.upper())


@pytest.mark.parametrize(
    "raw", [b"", b"\x01" * 31, b"\x01" * 33, bytearray(32)], ids=["0", "31", "33", "bytearray"]
)
def test_client_id_that_is_not_32_bytes_is_refused(raw):
    with pytest.raises(ValueError, match="^client address must be 32 bytes$"):
        ClientId(raw)


def test_empty_alias_is_refused():
    with pytest.raises(ValueError, match="^alias must be non-empty$"):
        ClientId.from_alias("")


@given(st.lists(st.binary(min_size=32, max_size=32), min_size=1, max_size=8))
def test_client_id_equality_hashing_and_order_follow_raw(raws):
    """Equal addresses are equal and hash equally as distinct objects, are
    interchangeable as dict keys, and sort as their raw bytes do."""
    ids = [ClientId(raw) for raw in raws]
    copies = [ClientId(bytes(bytearray(raw))) for raw in raws]
    for client, copy in zip(ids, copies):
        assert client == copy and not client != copy
        assert hash(client) == hash(copy)
    assert {client: client.raw for client in ids} == {copy: copy.raw for copy in copies}
    assert [client.raw for client in sorted(ids)] == sorted(raws)
    assert len(set(ids)) == len(set(raws))
    assert ALICE != ALICE.raw and ALICE != ALICE.hex


# --- properties ---------------------------------------------------------------

clients = [ClientId.from_alias(f"client-{i}") for i in range(5)]

action = st.tuples(
    st.sampled_from(["mint", "transfer", "approve"]),
    st.integers(0, 4),  # caller
    st.integers(0, 4),  # counterparty
    st.integers(1, 6),  # token; a mint takes the next id instead
)


@settings(max_examples=200, deadline=None)
@given(actions=st.lists(action, max_size=50))
def test_single_owner_and_approval_hygiene(actions):
    registry = TokenRegistry(KEY := object())
    owners: dict[int, ClientId] = {}
    approved: dict[int, set[ClientId]] = {}
    for kind, caller_i, other_i, token_id in actions:
        caller, other = clients[caller_i], clients[other_i]
        try:
            if kind == "mint":
                token_id = registry.mint(KEY, caller)
                assert token_id == len(owners) + 1
                owners[token_id] = caller
                approved[token_id] = set()
            elif kind == "transfer":
                registry.transfer(caller, registry.owner_of(token_id), other, token_id)
                owners[token_id] = other
                approved[token_id] = set()
            else:
                registry.approve(caller, other, token_id)
                approved[token_id].add(other)
        except TokenNotFoundError:
            assert token_id not in owners  # an id never minted
            continue
        except (NotAuthorizedError, ZeroAddressError):
            continue
        # single owner, matching the shadow model
        for tid, owner in owners.items():
            assert registry.owner_of(tid) == owner
        # approval hygiene: only the shadow-approved (or owner) are authorized
        for tid in owners:
            for client in clients:
                expected = client == owners[tid] or client in approved[tid]
                assert registry.is_authorized(client, tid) is expected
