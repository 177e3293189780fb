"""Per-layer spans for a traced election, recorded from outside the program.

A :class:`Tracer` replaces public functions and methods of votesim with
wrappers that count calls and time them. Each wrapper pushes a frame on a
span stack, so a span's self time is its duration minus the time of the
spans it called. The wrappers are installed only for the traced elections
and removed again afterwards, so untraced elections run the original code.

A function bound under several names (``from .crypto import verify_ballot``
in ``baselines`` and ``spp``, ``verify_token`` in ``chainvote``, the
``votesim.crypto`` re-exports) is replaced under every name that holds it,
in every loaded votesim module; calls through a binding left unwrapped
would go uncounted.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Any, Callable

# Span name -> (module, dotted attribute of the function or method).
SPANS: dict[str, tuple[str, str]] = {
    "simnet.run": ("votesim.simnet", "Simulator.run_until_quiescent"),
    "simnet.send": ("votesim.simnet", "Simulator.send"),
    "simnet.local_action": ("votesim.simnet", "Simulator.local_action"),
    "simnet.set_timer": ("votesim.simnet", "Simulator.set_timer"),
    "simnet.to_jsonl": ("votesim.simnet", "Trace.to_jsonl"),
    "wire.dumps": ("votesim.wire", "dumps"),
    "wire.loads": ("votesim.wire", "loads"),
    "wire.digest": ("votesim.wire", "digest"),
    "wire.ser_ints": ("votesim.wire", "ser_ints"),
    "group.exp": ("votesim.crypto.group", "Group.exp"),
    "group.is_element": ("votesim.crypto.group", "Group.is_element"),
    "group.hash_scalar": ("votesim.crypto.group", "Group.hash_scalar"),
    "proofs.verify_ballot": ("votesim.crypto.proofs", "verify_ballot"),
    "proofs.prove_vector": ("votesim.crypto.proofs", "prove_vector"),
    "elgamal.combine": ("votesim.crypto.elgamal", "combine"),
    "elgamal.partial_decrypt": ("votesim.crypto.elgamal", "partial_decrypt"),
    "elgamal.dlog_recover": ("votesim.crypto.elgamal", "dlog_recover"),
    "elgamal.threshold_keygen": ("votesim.crypto.elgamal", "threshold_keygen"),
    "blindsig.verify_token": ("votesim.crypto.blindsig", "verify_token"),
    "blindsig.keygen": ("votesim.crypto.blindsig", "generate_issuer_key"),
    "chainvote.mine_block": ("votesim.chainvote", "mine_block"),
    "chainvote.tx_serialize": ("votesim.chainvote", "Transaction.serialize"),
    "chainvote.verify_chain": ("votesim.chainvote", "ChainView.verify_chain"),
    "chainvote.tally_chain": ("votesim.chainvote", "tally_chain"),
    "chainvote.issue_tokens": ("votesim.chainvote", "issue_tokens"),
    "analysis.classify": ("votesim.analysis", "classify"),
}

HANDLER_SPAN = "handler"
HANDLER_HOOKS = ("on_start", "on_message", "on_timer", "on_idle")


def _digest_bytes(args, result) -> dict[str, float]:
    return {"wire.digest.bytes": len(args[0])}


def _pow_attempts(args, result) -> dict[str, float]:
    return {"chainvote.pow_attempts": result[1]}


def _best_chain(args, result) -> dict[str, float]:
    # Every honest peer tallies the same best chain; keep its length once.
    return {"chainvote.best_chain_blocks": len(args[0].best_chain()) - 1}


# Extra quantities read from a span's arguments or result. The sum over
# calls is kept, except for best_chain_blocks, where the last value is kept.
EXTRAS: dict[str, Callable[..., dict[str, float]]] = {
    "wire.digest": _digest_bytes,
    "chainvote.mine_block": _pow_attempts,
    "chainvote.tally_chain": _best_chain,
}
_LAST_VALUE = {"chainvote.best_chain_blocks"}


def _resolve(module: str, dotted: str) -> tuple[Any, str, Any]:
    """Owner object, attribute name and current value of module.dotted."""
    owner: Any = sys.modules[module]
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], owner.__dict__[parts[-1]]


class Tracer:
    """Call counts, self times and extra quantities per span name."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.extra: dict[str, float] = {}
        self._stack: list[float] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        calls, self_s, stack = self.calls, self.self_s, self._stack
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        clock = time.perf_counter
        extra_fn = EXTRAS.get(name)
        extra = self.extra

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                self_s[name] += elapsed - child
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed
            if extra_fn is not None:
                for key, value in extra_fn(args, result).items():
                    extra[key] = value if key in _LAST_VALUE else extra.get(key, 0) + value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _votesim_modules(self) -> list[Any]:
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "votesim" or n.startswith("votesim."))]

    def install(self) -> None:
        """Wrap every span and start counting from zero."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.calls.clear()
        self.self_s.clear()
        self.extra.clear()
        modules = self._votesim_modules()
        for name, (module, dotted) in SPANS.items():
            owner, attr, original = _resolve(module, dotted)
            wrapper = self._wrap(name, original)
            self._patch(owner, attr, wrapper)
            if owner is sys.modules[module]:
                # Rebind every other module-level name that holds this function.
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
        simnet = sys.modules["votesim.simnet"]
        for cls in _subclasses(simnet.Peer):
            for hook in HANDLER_HOOKS:
                if hook in cls.__dict__:
                    self._patch(cls, hook, self._wrap(HANDLER_SPAN, cls.__dict__[hook]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()


def _subclasses(cls: type) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out
