"""Float64 tensors with tape autodiff, one op per operation (tensor), the
forward-only twins of the ops the model forwards call on plain ndarrays
(arrays) and AdamW (optim)."""
