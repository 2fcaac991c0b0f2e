"""agentfork: runtime library and simulator for complexity-triggered
child-agent spawning with sliced memory transfer and coherent merging."""

__version__ = "0.1.0"
