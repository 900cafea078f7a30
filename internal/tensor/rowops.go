package tensor

// The row-wise float32 ops a denoiser forward runs between its GEMMs
// (nn's Add, AddRepeat, AddScaled, Linear's bias and
// MulScalarBroadcast). Each element is one operation, or for AddScaled
// a multiply rounded and then an add, on the elements at its own index,
// so any cut of a range into chunks, and any vector width, gives the
// same bits. The Go loops below are the generic and purego kernels and
// the oracle the amd64 ones are held to.

// Add sets dst[i] = a[i] + b[i]; a and b are at least as long as dst.
//
//tracelint:hotpath
func Add(dst, a, b []float32) { add(dst, a[:len(dst)], b[:len(dst)]) }

// AddScaled sets dst[i] = a[i] + float32(s*b[i]): the product is rounded
// to float32 before the add, so no platform fuses the two.
//
//tracelint:hotpath
func AddScaled(dst, a, b []float32, s float32) { addScaled(dst, a[:len(dst)], b[:len(dst)], s) }

// AddBias adds bias to each of the len(x)/len(bias) rows of x in place.
//
//tracelint:hotpath
func AddBias(x, bias []float32) {
	d := len(bias)
	for r := 0; d > 0 && r+d <= len(x); r += d {
		row := x[r : r+d]
		add(row, row, bias)
	}
}

// ScaleRows sets row r of dst to row r of a times s[r], for the len(s)
// rows of len(dst)/len(s) elements each.
//
//tracelint:hotpath
func ScaleRows(dst, a, s []float32) {
	if len(s) == 0 {
		return
	}
	d := len(dst) / len(s)
	for r, sv := range s {
		scale(dst[r*d:(r+1)*d], a[r*d:(r+1)*d], sv)
	}
}

func addLoop(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

func addScaledLoop(dst, a, b []float32, s float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] + float32(s*b[i])
	}
}

func scaleLoop(dst, a []float32, s float32) {
	a = a[:len(dst)]
	for i, v := range a {
		dst[i] = v * s
	}
}
