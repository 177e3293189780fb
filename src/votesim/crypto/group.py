"""Prime-order subgroup arithmetic for the homomorphic tally scheme.

Two fixed Schnorr groups: DEFAULT_GROUP has a 256-bit subgroup order (a
safe prime, p = 2q + 1) and is used by the simulated protocols;
TEST_GROUP has q near 2^16 so exhaustive test sweeps stay fast. Neither
is a production parameter set.

Exponentiation with a fixed base (the generator g, or an election key
registered with Group.fix_base) reads a precomputed table: rows[i][d] is
base^(d * 2^(7i)) mod p (Brickell-Gordon-McCurley-Wilson, EUROCRYPT '92),
so base^e is one multiply per nonzero 7-bit digit of e mod q. Any other
base goes through pow. Subgroup membership is a Jacobi symbol: in a
safe-prime group the subgroup of order q is exactly the quadratic residues
mod p.

Every voter re-verifies every ballot, so one election asks a group for the
same powers and the same membership checks once per verifier. A group
therefore remembers its answers: exp by (base, e mod q), is_element by a
(only for 0 < a < p; the range check runs first on every call). A
remembered value is the very result that the table, pow or the Jacobi
symbol gave for those integers, so every check compares the same numbers
as without the memo. The memo holds at most _MEMO entries, dropping the
oldest first, and fix_base empties it whenever it builds a table for a new
election key, so no memo outlives the key it was filled under.
"""

from __future__ import annotations

import hashlib
import random
from collections import OrderedDict
from dataclasses import dataclass, field

from .. import wire


class CryptoError(Exception):
    pass


# Window width of the fixed-base tables. With 7 bits a table of the 256-bit
# group holds 4,736 ints (0.32 MB); 8 bits would take 0.56 MB to save about
# one multiply in seven.
_WINDOW = 7
# Key tables a group keeps beside its generator's, so that a run of
# elections does not keep one table per election key.
_KEY_TABLES = 1
# Entries of a group's memo. One Helios election of 32 voters leaves about
# 1,100 (0.3 MB); the bound only caps what a long run of elections under one
# key can hold.
_MEMO = 1 << 12


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0 and 0 <= a < n."""
    t = 1
    while a:
        z = (a & -a).bit_length() - 1
        a >>= z
        if z & 1 and n & 7 in (3, 5):
            t = -t
        if a & n & 2:  # quadratic reciprocity: both are 3 mod 4
            t = -t
        a, n = n % a, a
    return t if n == 1 else 0


@dataclass(frozen=True)
class Group:
    """Subgroup of order q inside Z_p^*, generated by g; p = 2q + 1."""

    p: int
    q: int
    g: int
    # Fixed-base tables by base: g's is built on its first exp and stays;
    # fix_base builds a key's, and only the _KEY_TABLES keys fixed last
    # (_keys, oldest first) keep theirs.
    _tables: dict[int, list[list[int]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _keys: list[int] = field(default_factory=list, init=False, repr=False, compare=False)
    # Results under the current election key, oldest first: exp's by
    # (base, e mod q), is_element's by a.
    _memo: OrderedDict[int | tuple[int, int], int | bool] = field(
        default_factory=OrderedDict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.p != 2 * self.q + 1:
            raise CryptoError("need a safe prime: p = 2q + 1")

    def exp(self, base: int, e: int) -> int:
        e %= self.q
        key = (base, e)
        r = self._memo.get(key)
        if r is None:
            r = self._remember(key, self._exp(base, e))
        return r

    def _exp(self, base: int, e: int) -> int:
        """base^e mod p for 0 <= e < q, not remembered."""
        rows = self._tables.get(base)
        if rows is None:
            if base != self.g:
                return pow(base, e, self.p)
            rows = self._tables[base] = self._fixed_base_table(base)
        acc, p, mask = 1, self.p, (1 << _WINDOW) - 1
        for row in rows:
            d = e & mask
            if d:
                acc = acc * row[d] % p
            e >>= _WINDOW
        return acc

    def fix_base(self, base: int) -> None:
        """Make exp with base (an election key) a table lookup, until
        _KEY_TABLES other keys have been fixed after it. A new key's table
        empties the memo."""
        if base == self.g:
            return
        if base in self._keys:
            self._keys.remove(base)
        else:
            while len(self._keys) >= _KEY_TABLES:
                del self._tables[self._keys.pop(0)]
            self._tables[base] = self._fixed_base_table(base)
            self._memo.clear()
        self._keys.append(base)

    def _fixed_base_table(self, base: int) -> list[list[int]]:
        """rows[i][d] = base^(d * 2^(_WINDOW * i)) mod p, for every window of q."""
        p, table, b = self.p, [], base % self.p
        for _ in range(-(-self.q.bit_length() // _WINDOW)):
            row = [1, b]
            for _ in range(2 ** _WINDOW - 2):
                row.append(row[-1] * b % p)
            table.append(row)
            b = row[-1] * b % p
        return table

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        return pow(a, -1, self.p)

    def is_element(self, a: int) -> bool:
        if not 0 < a < self.p:
            return False
        r = self._memo.get(a)
        if r is None:
            r = self._remember(a, _jacobi(a, self.p) == 1)
        return r

    def _remember(self, key: int | tuple[int, int], value):
        memo = self._memo
        if len(memo) >= _MEMO:
            memo.popitem(last=False)
        memo[key] = value
        return value

    def rand_scalar(self, rng: random.Random) -> int:
        return rng.randrange(1, self.q)

    def hash_scalar(self, domain: str, *parts: int) -> int:
        """Fiat-Shamir challenge: hash domain-separated integers to Z_q."""
        h = hashlib.sha256()
        h.update(domain.encode() + b"\x00")
        h.update(wire.ser_ints(self.p, self.q, self.g, *parts))
        return int.from_bytes(h.digest(), "big") % self.q


DEFAULT_GROUP = Group(
    p=0x1F9287EDC91F31C80705E05D4709DD07845891F64A00A2842915498BEAFE4FB47,
    q=0xFC943F6E48F98E40382F02EA384EE83C22C48FB25005142148AA4C5F57F27DA3,
    g=0x4,
)

TEST_GROUP = Group(p=131267, q=65633, g=4)


def lagrange_at_zero(index: int, indices: list[int], q: int) -> int:
    """Lagrange coefficient for interpolating a shared secret at x = 0."""
    num, den = 1, 1
    for j in indices:
        if j != index:
            num = num * (-j) % q
            den = den * (index - j) % q
    return num * pow(den, -1, q) % q
