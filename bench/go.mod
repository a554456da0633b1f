// The benchmark is a module of its own so that it builds from files
// under bench/ plus the library it measures, and so that the library's
// own `go build ./... && go test ./...` neither compiles nor runs it.
// The module path sits under codesignvm/ so bench/layers.go may import
// codesignvm/internal/... for the stand-alone layer probes.
module codesignvm/bench

go 1.22

require codesignvm v0.0.0

replace codesignvm => ../
