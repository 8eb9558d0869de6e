package ascoma

// GoldenConfigs exposes the pinned 72-config golden matrix to the external
// test package.
var GoldenConfigs = goldenConfigs
