"""End-to-end goodput and membership benchmark (see README.md)."""
