"""Performance benchmark of the NNQS reproduction (see README.md)."""
