package core

// ReferenceSelect exposes the per-instance SEL oracle to the external
// tests of this package.
var ReferenceSelect = referenceSelect
