// Package imagerep converts nprint bit matrices to and from the image
// representation the diffusion model operates on, and renders the
// paper's Figure 2 style visualizations.
//
// The paper maps each nprint cell to a pixel: red for bits valued 1,
// green for 0, grey for -1 (vacant). Numerically we keep a single
// channel with the cell's value in {-1, 0, +1}; the diffusion model
// works in this continuous space, and Quantize ("color processing" in
// the paper) snaps samples back onto the three legal values.
package imagerep

import (
	"errors"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"

	"trafficdiff/internal/nprint"
)

// Image is a single-channel float32 image, row-major.
type Image struct {
	H, W int
	Pix  []float32
}

// NewImage allocates a zero image.
func NewImage(h, w int) *Image {
	return &Image{H: h, W: w, Pix: make([]float32, h*w)}
}

// At returns the pixel at (row, col).
func (im *Image) At(r, c int) float32 { return im.Pix[r*im.W+c] }

// Set writes the pixel at (row, col).
func (im *Image) Set(r, c int, v float32) { im.Pix[r*im.W+c] = v }

// Clone returns a deep copy.
func (im *Image) Clone() *Image {
	return &Image{H: im.H, W: im.W, Pix: append([]float32(nil), im.Pix...)}
}

// ErrShapeMismatch reports incompatible dimensions.
var ErrShapeMismatch = errors.New("imagerep: shape mismatch")

// FromMatrix lifts an nprint matrix into image space. The image is
// NumRows x BitsPerPacket with values exactly -1, 0 or +1.
func FromMatrix(m *nprint.Matrix) *Image {
	im := NewImage(m.NumRows, nprint.BitsPerPacket)
	for i, v := range m.Data {
		im.Pix[i] = float32(v)
	}
	return im
}

// ToMatrix quantizes an image back to an nprint matrix. The image
// width must be BitsPerPacket.
func ToMatrix(im *Image) (*nprint.Matrix, error) {
	if im.W != nprint.BitsPerPacket {
		return nil, fmt.Errorf("%w: width %d, want %d", ErrShapeMismatch, im.W, nprint.BitsPerPacket)
	}
	m := nprint.NewMatrix(im.H)
	for i, v := range im.Pix {
		m.Data[i] = QuantizeValue(v)
	}
	return m, nil
}

// QuantizeValue snaps a continuous sample onto the nearest legal
// nprint value: thresholds at ±0.5.
func QuantizeValue(v float32) int8 {
	switch {
	case v <= -0.5:
		return nprint.Vacant
	case v >= 0.5:
		return nprint.One
	default:
		return nprint.Zero
	}
}

// Quantize snaps every pixel onto {-1, 0, +1} in place and returns im.
// It is idempotent.
func Quantize(im *Image) *Image {
	for i, v := range im.Pix {
		im.Pix[i] = float32(QuantizeValue(v))
	}
	return im
}

// Downscale reduces the image by integer factors using mean pooling.
// H must be divisible by fh and W by fw.
func Downscale(im *Image, fh, fw int) (*Image, error) {
	if fh <= 0 || fw <= 0 || im.H%fh != 0 || im.W%fw != 0 {
		return nil, fmt.Errorf("%w: %dx%d not divisible by %dx%d", ErrShapeMismatch, im.H, im.W, fh, fw)
	}
	out := NewImage(im.H/fh, im.W/fw)
	norm := 1 / float32(fh*fw)
	for r := 0; r < out.H; r++ {
		for c := 0; c < out.W; c++ {
			var sum float32
			for i := 0; i < fh; i++ {
				row := (r*fh + i) * im.W
				for j := 0; j < fw; j++ {
					sum += im.Pix[row+c*fw+j]
				}
			}
			out.Pix[r*out.W+c] = sum * norm
		}
	}
	return out, nil
}

// Upscale enlarges the image by integer factors using nearest-neighbor
// replication (the inverse of Downscale for piecewise-constant
// content).
func Upscale(im *Image, fh, fw int) (*Image, error) {
	if fh <= 0 || fw <= 0 {
		return nil, fmt.Errorf("%w: non-positive factors %dx%d", ErrShapeMismatch, fh, fw)
	}
	out := NewImage(im.H*fh, im.W*fw)
	for r := 0; r < out.H; r++ {
		src := (r / fh) * im.W
		dst := r * out.W
		for c := 0; c < out.W; c++ {
			out.Pix[dst+c] = im.Pix[src+c/fw]
		}
	}
	return out, nil
}

// QuantizeUpscaled is ToMatrix(Quantize(Upscale(im, fh, fw))) for the
// h×w image pix, computed at that resolution: each pixel is quantized
// once and its value written over its fh×fw block of the matrix. The
// result is exactly the three-step one — quantization is pointwise and
// Upscale replicates, so the two commute for every input, NaN and ±Inf
// included — without the h·fh × w·fw float image.
//
//tracelint:hotpath
func QuantizeUpscaled(pix []float32, h, w, fh, fw int) (*nprint.Matrix, error) {
	if h < 0 || fh <= 0 || fw <= 0 || len(pix) != h*w || w*fw != nprint.BitsPerPacket {
		return nil, fmt.Errorf("%w: pixels do not form rows that scale to the nprint row width", ErrShapeMismatch)
	}
	//tracelint:allow hotalloc — the result: one matrix per flow, every cell written below
	m := &nprint.Matrix{NumRows: h * fh, Data: make([]int8, h*fh*nprint.BitsPerPacket)}
	for r := 0; r < h; r++ {
		first := m.Row(r * fh)
		for c, v := range pix[r*w : (r+1)*w] {
			q := QuantizeValue(v)
			cells := first[c*fw : (c+1)*fw]
			for j := range cells {
				cells[j] = q
			}
		}
		for i := 1; i < fh; i++ {
			copy(m.Row(r*fh+i), first)
		}
	}
	return m, nil
}

// PadRows extends the image to h rows, filling new rows with fill
// (use -1 to mark vacant packets). It returns im unchanged if it
// already has at least h rows.
func PadRows(im *Image, h int, fill float32) *Image {
	if im.H >= h {
		return im
	}
	out := NewImage(h, im.W)
	copy(out.Pix, im.Pix)
	for i := im.H * im.W; i < len(out.Pix); i++ {
		out.Pix[i] = fill
	}
	return out
}

// Figure 2 palette: red for 1, green for 0, grey for -1.
var (
	colorOne    = color.RGBA{R: 0xd6, G: 0x2a, B: 0x2a, A: 0xff}
	colorZero   = color.RGBA{R: 0x2a, G: 0xa0, B: 0x2a, A: 0xff}
	colorVacant = color.RGBA{R: 0x9a, G: 0x9a, B: 0x9a, A: 0xff}
)

// RenderPNG writes the quantized image as a Figure 2 style PNG.
func RenderPNG(w io.Writer, im *Image) error {
	out := image.NewRGBA(image.Rect(0, 0, im.W, im.H))
	for r := 0; r < im.H; r++ {
		for c := 0; c < im.W; c++ {
			var col color.RGBA
			switch QuantizeValue(im.At(r, c)) {
			case nprint.One:
				col = colorOne
			case nprint.Zero:
				col = colorZero
			default:
				col = colorVacant
			}
			out.SetRGBA(c, r, col)
		}
	}
	return png.Encode(w, out)
}

// ColumnActivity returns, per column, the fraction of rows whose cell
// is non-vacant. The controlnet package derives protocol templates
// from this profile.
func ColumnActivity(im *Image) []float64 {
	act := make([]float64, im.W)
	if im.H == 0 {
		return act
	}
	for r := 0; r < im.H; r++ {
		for c := 0; c < im.W; c++ {
			if QuantizeValue(im.At(r, c)) != nprint.Vacant {
				act[c]++
			}
		}
	}
	for c := range act {
		act[c] /= float64(im.H)
	}
	return act
}

// ParsePNG reads a Figure 2 style PNG back into a quantized image,
// mapping each pixel to the nearest palette color (red=1, green=0,
// grey=-1). Together with RenderPNG it makes the visual representation
// itself round-trippable, so an edited image can be back-transformed
// into packets.
func ParsePNG(r io.Reader) (*Image, error) {
	src, err := png.Decode(r)
	if err != nil {
		return nil, fmt.Errorf("imagerep: decoding png: %w", err)
	}
	bounds := src.Bounds()
	im := NewImage(bounds.Dy(), bounds.Dx())
	palette := []struct {
		c color.RGBA
		v float32
	}{
		{colorOne, 1}, {colorZero, 0}, {colorVacant, -1},
	}
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			r16, g16, b16, _ := src.At(bounds.Min.X+x, bounds.Min.Y+y).RGBA()
			r8, g8, b8 := int(r16>>8), int(g16>>8), int(b16>>8)
			best, bestD := float32(-1), 1<<30
			for _, p := range palette {
				d := sq(r8-int(p.c.R)) + sq(g8-int(p.c.G)) + sq(b8-int(p.c.B))
				if d < bestD {
					best, bestD = p.v, d
				}
			}
			im.Set(y, x, best)
		}
	}
	return im, nil
}

func sq(x int) int { return x * x }
