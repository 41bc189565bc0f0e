package rfb

// FuzzCorpora lets the external test package register the seed builders
// of its fuzz targets, so TestFuzzSeedCorpus keeps their corpora in step.
var FuzzCorpora = fuzzCorpora
