package core

// PreprocessCert is Preprocess with certificate recording.
var PreprocessCert = preprocessCert
