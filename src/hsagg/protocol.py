"""Single-round simulation of the two-hop masking protocol.

Users add their mask to the input and send the result to their relay; each
relay forwards the sum of its cluster's messages; the server adds the relay
messages.  Because the coefficient rows sum to zero the masks vanish and
the decoded vector equals the true input sum, which run_round asserts.

Multi-symbol inputs use an independent source key per symbol position:
reusing one-time-pad material across positions would break security, so a
round of length L carries L separate KeyMaterial instances.
"""

from __future__ import annotations

import random
from collections import namedtuple

from .errors import ConfigurationError, CorrectnessViolation
from .schemes import CoefficientScheme, KeyMaterial, derive_keys

__all__ = [
    "RoundInputs",
    "RoundTranscript",
    "ObservedRates",
    "sample_round",
    "run_round",
    "measure_rates",
    "transcript_to_json_obj",
]


class RoundInputs(namedtuple("RoundInputs", "W L seed", defaults=(None,))):
    """Private inputs for one round: W maps each user to a vector of L residues."""

    __slots__ = ()


class RoundTranscript(namedtuple("RoundTranscript", "inputs keys X Y decoded")):
    """One executed round: the inputs, one KeyMaterial per symbol position,
    the user messages X (user -> vector), the relay messages Y (relay ->
    vector) and the decoded sum."""

    __slots__ = ()


class ObservedRates(namedtuple("ObservedRates", "R_X R_Y R_Z R_Z_sigma")):
    """Symbol counts per input symbol, measured from an actual transcript."""

    __slots__ = ()

    def as_tuple(self) -> tuple[int, int, int, int]:
        return tuple(self)


def sample_round(
    scheme: CoefficientScheme, L: int, seed: int
) -> tuple[RoundInputs, list[KeyMaterial]]:
    """Uniform inputs plus L fresh source key vectors from a seeded generator.

    The draw order is fixed (inputs first, user-lexicographic, then one
    source vector per symbol position), so identical seeds give identical
    rounds.
    """
    if L < 1:
        raise ConfigurationError(f"round length must be positive, got {L}")
    q = scheme.field.q
    rng = random.Random(seed)
    W = {
        user: tuple(rng.randrange(q) for _ in range(L))
        for user in scheme.cfg.users()
    }
    keys = [
        derive_keys(scheme, [rng.randrange(q) for _ in range(scheme.n_source)])
        for _ in range(L)
    ]
    return RoundInputs(W, L, seed), keys


def run_round(
    scheme: CoefficientScheme, inputs: RoundInputs, keys: list[KeyMaterial] | tuple[KeyMaterial, ...]
) -> RoundTranscript:
    """Execute one round and decode; a decode mismatch marks a corrupt scheme."""
    cfg = scheme.cfg
    q = scheme.field.q
    L = inputs.L
    users = cfg.users()
    if set(inputs.W) != set(users):
        raise ValueError("inputs do not cover the U x V user grid")
    if any(len(inputs.W[user]) != L for user in users):
        raise ValueError(f"every input vector must have length L = {L}")
    if len(keys) != L:
        raise ValueError(f"need one KeyMaterial per symbol position: {len(keys)} != {L}")
    if any(len(k.source) != scheme.n_source for k in keys):
        raise ValueError("key material does not match the scheme's source size")

    X = {
        user: tuple((inputs.W[user][pos] + keys[pos].individual[user]) % q for pos in range(L))
        for user in users
    }
    Y = {
        u: tuple(sum(X[(u, v)][pos] for v in range(1, cfg.V + 1)) % q for pos in range(L))
        for u in range(1, cfg.U + 1)
    }
    decoded = tuple(sum(Y[u][pos] for u in Y) % q for pos in range(L))

    truth = tuple(sum(inputs.W[user][pos] for user in users) % q for pos in range(L))
    if decoded != truth:
        raise CorrectnessViolation(
            f"decoded sum {decoded} != true input sum {truth}; scheme is corrupt"
        )
    return RoundTranscript(inputs, tuple(keys), X, Y, decoded)


def measure_rates(transcript: RoundTranscript) -> ObservedRates:
    """Rates observed from message and key lengths, per input symbol."""
    L = transcript.inputs.L
    x_lens = {len(v) for v in transcript.X.values()}
    y_lens = {len(v) for v in transcript.Y.values()}
    src_lens = {len(k.source) for k in transcript.keys}
    if len(x_lens) != 1 or len(y_lens) != 1 or len(src_lens) != 1:
        raise ValueError("ragged transcript")

    def per_symbol(total: int) -> int:
        if total % L:
            raise ValueError(f"length {total} is not a multiple of L = {L}")
        return total // L

    return ObservedRates(
        R_X=per_symbol(x_lens.pop()),
        R_Y=per_symbol(y_lens.pop()),
        R_Z=per_symbol(len(transcript.keys)),  # one mask symbol per position per user
        R_Z_sigma=per_symbol(src_lens.pop() * L),
    )


def transcript_to_json_obj(transcript: RoundTranscript, scheme_ref: str) -> dict:
    """Interchange form of a transcript.  Key material stays in memory only."""
    return {
        "scheme_ref": scheme_ref,
        "L": transcript.inputs.L,
        "seed": transcript.inputs.seed,
        "W": {f"{u},{v}": list(vec) for (u, v), vec in sorted(transcript.inputs.W.items())},
        "X": {f"{u},{v}": list(vec) for (u, v), vec in sorted(transcript.X.items())},
        "Y": {str(u): list(vec) for u, vec in sorted(transcript.Y.items())},
        "decoded": list(transcript.decoded),
    }
