package pps

// SameShapeWalk exposes the point-by-point reference to the external
// tests, which build their systems with randsys and scenarios.
var SameShapeWalk = sameShapeWalk
