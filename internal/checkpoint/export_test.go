package checkpoint

// EncodedSize exposes the buffer size Encode presizes to.
var EncodedSize = encodedSize
