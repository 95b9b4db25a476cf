"""RMSprop: per-parameter running average of squared gradients.

Update rule, applied elementwise per parameter:

    v <- RHO * v + (1 - RHO) * g^2
    p <- p - lr * g / (sqrt(v) + EPS)
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError

#: Decay of the running average of squared gradients.
RHO = 0.9
#: Added to the root of that average before it divides the gradient.
EPS = 1e-8

#: Elements per block of ``RmsProp.step``: each block is checked through one
#: boolean scratch buffer of this length and updated through two more, all of
#: which stay in cache.
BLOCK = 32 * 1024


class RmsProp:
    """Stateful optimizer over a named parameter set.

    ``params`` maps names to grad-requiring tensors; ``step`` reads each
    tensor's accumulated gradient and mutates its values in place.  A
    non-finite gradient aborts the step before any parameter is touched.

    A step checks the gradients and then runs the update rule in blocks of
    ``BLOCK`` elements, with the operations in the rule's order, so it
    allocates no full-size temporaries and gives the same bits as the rule
    applied to whole arrays.
    """

    def __init__(self, params, lr=1e-4):
        self.params = dict(params)
        self.lr = float(lr)
        self.square_avg = {name: np.zeros(p.data.shape, p.data.dtype) for name, p in self.params.items()}
        self._scratch = {}
        self._finite = np.empty(BLOCK, bool)

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        grads = {}
        for name, p in self.params.items():
            g = grads[name] = p.grad.reshape(-1)
            for lo in range(0, g.size, BLOCK):
                gb = g[lo:lo + BLOCK]
                if not np.isfinite(gb, out=self._finite[:gb.size]).all():
                    raise NumericError(f"non-finite gradient for parameter '{name}'; step aborted")
        for name, p in self.params.items():
            if not p.data.flags.c_contiguous:
                p.data = np.ascontiguousarray(p.data)
            x, v, g = p.data.reshape(-1), self.square_avg[name].reshape(-1), grads[name]
            if x.dtype not in self._scratch:
                self._scratch[x.dtype] = np.empty((2, BLOCK), x.dtype)
            a, b = self._scratch[x.dtype]
            for lo in range(0, x.size, BLOCK):
                xb, vb, gb = x[lo:lo + BLOCK], v[lo:lo + BLOCK], g[lo:lo + BLOCK]
                t, u = a[:xb.size], b[:xb.size]
                # v <- RHO * v + (1 - RHO) * g * g
                vb *= RHO
                np.multiply(gb, 1.0 - RHO, out=t)
                t *= gb
                vb += t
                # p <- p - lr * g / (sqrt(v) + EPS)
                np.sqrt(vb, out=t)
                t += EPS
                np.multiply(gb, self.lr, out=u)
                u /= t
                xb -= u
