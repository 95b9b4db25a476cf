"""
Reverse-mode autodiff in a few lines
====================================

Every trainable array is a Tensor; running operations inside a Tape
records how each value was produced, and a single backward pass replays
the record in reverse to fill in gradients.  No framework underneath,
just numpy buffers.
"""

import numpy as np

from tagflow.autodiff import (
    Tape, Tensor, backward, constant, gradcheck, kl_divergence, matmul, relu, softmax_last_axis,
)

# 1. a tiny computation: y = sum(relu(x W)), the sum taken as a product
# with a column of ones
rng = np.random.default_rng(0)
W = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
x = constant(rng.standard_normal((1, 3)))
ones = constant(np.ones((2, 1)))

with Tape():
    y = matmul(relu(matmul(x, W)), ones)
backward(y)
print("loss:", y.data.item())
print("dloss/dW:\n", W.grad)

# 2. gradients accumulate when a tensor is used twice
W.zero_grad()
with Tape():
    y = matmul(matmul(x, W), ones) + matmul(matmul(x, W), ones)
backward(y)
print("\nused twice, gradient doubles:\n", W.grad)

# 3. the training objective: KL(target || softmax(logits)).
# The target is a constant; gradients flow through the prediction only.
logits = Tensor(rng.standard_normal((1, 4)), requires_grad=True, dtype=np.float64)
target = np.array([0.5, 0.5, 0.0, 0.0])

with Tape():
    probs = softmax_last_axis(logits)
    loss = kl_divergence(constant(target), probs)
backward(loss)
print("\nKL loss:", float(loss.data))
print("dloss/dlogits:", logits.grad[0])
# softmax+KL has the classic closed form: probs - target
print("probs - target:", probs.data[0] - target)

# 4. finite differences confirm the analytic gradients
logits.zero_grad()
worst = gradcheck(
    lambda: kl_divergence(constant(target), softmax_last_axis(logits)),
    [logits],
)
print(f"\ngradcheck worst |analytic - numeric|: {worst:.3g}")
