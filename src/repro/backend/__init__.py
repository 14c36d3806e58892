"""The backend data store the cache fronts (paper's storage server)."""
