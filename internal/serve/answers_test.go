package serve

// The tests name the one point answer by the kind they ask.
type (
	edgeAnswer   = pointAnswer
	vertexAnswer = pointAnswer
	labelAnswer  = pointAnswer
)
