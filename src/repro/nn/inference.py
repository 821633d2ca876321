"""Incremental-decoding inference engine: KV caches and sampling sessions.

The batch autoregressive sampler (Fig. 3) only ever asks the amplitude
network one question: "given this prefix, what is the conditional of the
*next* token?".  Re-running the full transformer over the whole prefix at
every local sampling step costs O(sum_k k^2) attention recompute per layer
and sweep; with per-layer key/value caches the same sweep costs O(k) — the
standard incremental-decoding trick of GPT-style inference servers, applied
to the NNQS sampling loop.

Architecture (see DESIGN.md):

* :class:`KVCache` — the cached keys/values of one attention layer, shape
  ``(batch, heads, t, d_head)``, appended to as the prefix grows and
  *gathered* when the BAS tree branches (one cache row per unique prefix).
* :class:`TransformerInferenceSession` — one in-flight decoding session:
  a list of per-layer caches plus the current position.  ``step()`` consumes
  one token per row and returns the next-position logits;
  ``prefill()`` bootstraps the caches from a whole prefix in one batched
  causal pass (used when resuming a mid-tree :class:`BASTreeState` that
  arrives without a session, e.g. after the parallel split of Fig. 5);
  ``select()`` realigns the cache rows with the surviving/branched prefixes.
* :class:`FallbackInferenceSession` — the protocol implementation for
  amplitude networks without an incremental path (MADE / NAQS-MLP declare
  ``fixed_length = True``): it stores the consumed tokens and re-runs the
  full ``conditional_logits`` each step, which reproduces the pre-cache
  numerics bit for bit.

Everything in this module is graph-free math on raw ``.data`` buffers,
allocated through the active backend's ``xp`` namespace — the KV caches and
step activations stay device-resident for the whole sweep.  The
differentiable full-forward path (``conditional_logits``) remains the
training-time code path and the correctness oracle in the tests.
"""
from __future__ import annotations

import math

from repro.backend import xp
from repro.backend.dtypes import int64

__all__ = [
    "KVCache",
    "TransformerInferenceSession",
    "FallbackInferenceSession",
    "make_inference_session",
    "padded_next_logits",
    "linear_np",
    "layer_norm_np",
    "gelu_np",
    "softmax_np",
]


def padded_next_logits(model, prefix_tokens):
    """Next-position logits via the full ``conditional_logits`` forward.

    The one place that knows the padding contract: fixed-width ansätze
    (``fixed_length = True``) must be padded to ``n_tokens``, everything else
    only to ``k + 1``.  Shared by the fallback session and the wavefunction's
    full-forward oracle so the two paths cannot drift apart.
    """
    from repro.autograd import no_grad

    prefix_tokens = xp.asarray(prefix_tokens, dtype=int64)
    b, k = prefix_tokens.shape
    length = model.n_tokens if getattr(model, "fixed_length", False) else k + 1
    padded = xp.zeros((b, length), dtype=int64)
    padded[:, :k] = prefix_tokens
    with no_grad():
        return model.conditional_logits(padded).data[:, k, :]


# --------------------------------------------------------------------------
# Graph-free xp kernels, numerically identical to their autograd counterparts
# (same operations in the same order as repro.autograd.tensor).
# --------------------------------------------------------------------------
def linear_np(x, layer):
    """``y = x W^T + b`` on raw buffers (mirrors ``Linear.forward``)."""
    out = x @ xp.swapaxes(layer.weight.data, -1, -2)
    if layer.bias is not None:
        out = out + layer.bias.data
    return out


def layer_norm_np(x, layer):
    """LayerNorm on raw buffers (mirrors ``LayerNorm.forward``)."""
    mu = xp.mean(x, axis=-1, keepdims=True)
    centered = x - mu
    var = xp.mean(centered * centered, axis=-1, keepdims=True)
    inv = (var + layer.eps) ** -0.5
    return centered * inv * layer.gamma.data + layer.beta.data


def gelu_np(x):
    """tanh-approximation GELU (mirrors ``Tensor.gelu``)."""
    c = math.sqrt(2.0 / math.pi)
    inner = c * (x + 0.044715 * (x * x * x))
    return 0.5 * x * (1.0 + xp.tanh(inner))


def softmax_np(x, axis: int = -1):
    m = xp.max(x, axis=axis, keepdims=True)
    e = xp.exp(x - m)
    return e / xp.sum(e, axis=axis, keepdims=True)


# --------------------------------------------------------------------------
# KV cache
# --------------------------------------------------------------------------
class KVCache:
    """Cached keys/values of one attention layer: ``(batch, heads, t, d_head)``.

    ``t`` grows by one per decoding step (or by ``k`` on a prefill).  The
    batch axis is *row-aligned with the sampler's unique prefixes*: when the
    BAS tree branches, :meth:`select` duplicates the parent rows for every
    surviving child and drops pruned ones.
    """

    __slots__ = ("k", "v")

    def __init__(self, k=None, v=None):
        self.k = k  # None until the first append
        self.v = v

    @property
    def length(self) -> int:
        return 0 if self.k is None else self.k.shape[2]

    def append(self, k_new, v_new) -> None:
        """Append ``(batch, heads, t_new, d_head)`` keys/values along time."""
        if self.k is None:
            self.k, self.v = k_new, v_new
        else:
            self.k = xp.concatenate([self.k, k_new], axis=2)
            self.v = xp.concatenate([self.v, v_new], axis=2)

    def select(self, idx) -> "KVCache":
        """Gather cache rows: duplicates branching prefixes, drops pruned ones."""
        if self.k is None:
            return KVCache()
        return KVCache(k=self.k[idx], v=self.v[idx])


# --------------------------------------------------------------------------
# Sessions
# --------------------------------------------------------------------------
class TransformerInferenceSession:
    """One in-flight incremental decoding of a :class:`TransformerAmplitude`.

    Invariant: ``pos`` input positions have been consumed (position 0 is the
    BOS token), so the caches cover inputs ``0..pos-1`` and logits have been
    produced for sequence positions ``0..pos-1``.
    """

    def __init__(self, model, batch_size: int = 1):
        self.model = model
        self.batch_size = batch_size
        self.pos = 0
        self.caches = [KVCache() for _ in model.layers]

    def step(self, prev_tokens=None):
        """Consume one token per row, return ``(batch, vocab)`` next logits.

        ``prev_tokens`` is the token sampled at the previous position
        (``None`` on the very first call, which consumes the BOS token).
        """
        return self.model.step(prev_tokens, self)

    def prefill(self, prefix_tokens):
        """Bootstrap the caches from a ``(batch, k)`` prefix in one pass.

        Returns the ``(batch, vocab)`` logits of position ``k``.  Only valid
        on a fresh session (``pos == 0``).
        """
        return self.model.prefill(prefix_tokens, self)

    def select(self, idx) -> "TransformerInferenceSession":
        """Realign cache rows with branched/pruned prefixes (BAS tree split)."""
        out = TransformerInferenceSession.__new__(TransformerInferenceSession)
        out.model = self.model
        out.batch_size = len(idx)
        out.pos = self.pos
        out.caches = [c.select(idx) for c in self.caches]
        return out

    def copy(self) -> "TransformerInferenceSession":
        """Deep-copied session: stepping the copy never mutates the original."""
        out = TransformerInferenceSession.__new__(TransformerInferenceSession)
        out.model = self.model
        out.batch_size = self.batch_size
        out.pos = self.pos
        out.caches = [
            KVCache(None if c.k is None else xp.array(c.k),
                    None if c.v is None else xp.array(c.v))
            for c in self.caches
        ]
        return out

    def reset(self, batch_size: int | None = None) -> "TransformerInferenceSession":
        """Return the session to its fresh state (serving-layer pool hook).

        A reset session is indistinguishable from a newly constructed one —
        the pool's recycled sessions therefore keep sampling bit-identical.
        """
        if batch_size is not None:
            self.batch_size = batch_size
        self.pos = 0
        self.caches = [KVCache() for _ in self.model.layers]
        return self


class FallbackInferenceSession:
    """Session protocol for fixed-input-width ansätze (MADE, NAQS-MLP).

    These networks have no incremental path — their input layer consumes the
    whole (padded) sequence — so each ``step`` stores the new token column
    and re-runs the full ``conditional_logits`` under ``no_grad``, exactly
    as the pre-session ``conditional_probs`` did.  The session interface is
    identical, so the sampler does not care which kind it is driving.
    """

    def __init__(self, model, batch_size: int = 1):
        self.model = model
        self.batch_size = batch_size
        self.tokens = xp.zeros((batch_size, 0), dtype=int64)
        self._started = False

    @property
    def pos(self) -> int:
        return self.tokens.shape[1]

    def _next_logits(self):
        return padded_next_logits(self.model, self.tokens)

    def step(self, prev_tokens=None):
        # Same misuse contract as the transformer session: the first call
        # takes no token, every later call must consume one.
        if prev_tokens is None:
            if self._started:
                raise ValueError("prev_tokens required once the session has started")
        else:
            if not self._started:
                raise ValueError(
                    "the first step consumes BOS: call step(None) or prefill()"
                )
            prev = xp.asarray(prev_tokens, dtype=int64).reshape(-1, 1)
            self.tokens = xp.concatenate([self.tokens, prev], axis=1)
        self._started = True
        return self._next_logits()

    def prefill(self, prefix_tokens):
        if self._started or self.tokens.shape[1] > 0:
            # Same misuse contract as the transformer session.
            raise ValueError("prefill requires a fresh session")
        self._started = True
        prefix = xp.asarray(prefix_tokens, dtype=int64)
        if prefix.ndim == 1:
            prefix = prefix[None, :]
        self.tokens = prefix
        return self._next_logits()

    def select(self, idx) -> "FallbackInferenceSession":
        out = FallbackInferenceSession.__new__(FallbackInferenceSession)
        out.model = self.model
        out.batch_size = len(idx)
        out.tokens = self.tokens[idx]
        out._started = self._started
        return out

    def copy(self) -> "FallbackInferenceSession":
        out = FallbackInferenceSession.__new__(FallbackInferenceSession)
        out.model = self.model
        out.batch_size = self.batch_size
        out.tokens = xp.array(self.tokens)
        out._started = self._started
        return out

    def reset(self, batch_size: int | None = None) -> "FallbackInferenceSession":
        """Return the session to its fresh state (serving-layer pool hook)."""
        if batch_size is not None:
            self.batch_size = batch_size
        self.tokens = xp.zeros((self.batch_size, 0), dtype=int64)
        self._started = False
        return self


def make_inference_session(amplitude, batch_size: int = 1):
    """Open a decoding session for any amplitude network.

    Networks exposing ``make_session`` (the transformer) get their native
    KV-cached session; everything else gets the recompute fallback, so the
    sampler's session-driven loop works for every ansatz.
    """
    if hasattr(amplitude, "make_session"):
        return amplitude.make_session(batch_size)
    return FallbackInferenceSession(amplitude, batch_size)
