"""Float64 tensors with tape autodiff (tensor) and AdamW (optim)."""
