"""Object-based cache manager substrate (paper §V, initiator side)."""
