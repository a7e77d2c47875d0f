"""The CLI's subcommands, one module each, and common, the helpers and option
groups they share; cyarith.cli says how a run reaches them."""
