package core

// relearnEveryRegion sends every merge's gridded regions through Build, the
// path a region takes when it moves away from its fit, until restore is
// called: the rebuild a fold replaces, for the differential tests and the
// fold's benchmark gate.
func relearnEveryRegion() (restore func()) {
	relearnAll = true
	return func() { relearnAll = false }
}
