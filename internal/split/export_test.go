package split

// Pipeline's unexported steps, for the reference path that
// pipeline_exact_test.go holds Pipeline to.
var (
	SplitPrims      = splitPrims
	KeepBlock       = keepBlock
	RemoveBlocks    = removeBlocks
	RenameDescBlock = renameDescBlock
	RenameBlock     = renameBlock
)
