"""End-to-end benchmark of the Q-DPM reproduction (see README.md)."""
