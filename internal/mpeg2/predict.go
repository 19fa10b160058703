package mpeg2

// PredictMacroblock fills pY (16×16) and pCb/pCr (8×8) with the motion-
// compensated prediction of the macroblock at luma position (x, y) from ref
// with vector mv in half-sample units. It is the exact prediction the
// decoder applies, exported so the closed-loop encoder computes residuals
// against identical samples.
func PredictMacroblock(ref *PixelBuf, x, y int, mv [2]int32, pY *[256]uint8, pCb, pCr *[64]uint8) error {
	if err := checkPrediction(nil, ref, x, y, mv); err != nil {
		return err
	}
	predict(ref, x, y, mv, pY[:], 16, pCb[:], pCr[:], 8)
	return nil
}

// AveragePrediction combines two predictions with the standard rounding,
// in place into the first set of buffers.
func AveragePrediction(pY *[256]uint8, pCb, pCr *[64]uint8, qY *[256]uint8, qCb, qCr *[64]uint8) {
	for i := range pY {
		pY[i] = uint8((int32(pY[i]) + int32(qY[i]) + 1) >> 1)
	}
	for i := range pCb {
		pCb[i] = uint8((int32(pCb[i]) + int32(qCb[i]) + 1) >> 1)
		pCr[i] = uint8((int32(pCr[i]) + int32(qCr[i]) + 1) >> 1)
	}
}
