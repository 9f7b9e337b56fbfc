// The repository benchmark is a module of its own so the root module's
// build and tests do not depend on it. Its import path sits under the root
// module's, which is what lets it import ppaassembler/internal/...
module ppaassembler/benchmark

go 1.24

require ppaassembler v0.0.0

replace ppaassembler => ../
