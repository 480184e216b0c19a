package tmesh

// BuildGroup hands the external tests the in-package group builder.
var BuildGroup = buildGroup
