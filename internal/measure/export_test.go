package measure

// MeasureComponentRef exposes the test-only reference pipeline to the
// external golden tests.
var MeasureComponentRef = measureComponentRef
