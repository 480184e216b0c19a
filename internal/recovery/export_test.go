package recovery

// BuildWorld hands the external tests the in-package test world: a
// directory, its key tree, one churn interval's rekey message and the
// members that survived it.
var BuildWorld = buildWorld
