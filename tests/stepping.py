"""`step` into fresh round buffers, for the tests that read a round's arrays.

`step` returns the next state alone; the round's exact gradients, noise draw
and directions are in the `_RoundBuffers` it wrote, and each lane's step size
and clip radius are `_round_schedule(lane, k)`.
"""

from demuon.optimizers import _RoundBuffers, step


def step_with_buffers(state, problem, mixing, noise_model):
    """(next state, the fresh buffers the round was written into) of one `step`."""
    buffers = _RoundBuffers.allocate(state.x.shape, len(state.m))
    return step(state, problem, mixing, noise_model, out=buffers), buffers
