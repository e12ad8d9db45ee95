"""Float64 tensors with tape autodiff (tensor), their forward-only twins on
plain ndarrays (arrays) and AdamW (optim)."""
