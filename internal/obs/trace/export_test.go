package trace

// BaseRecords hands the well-formed rekey trace to the external tests.
var BaseRecords = baseRecords
