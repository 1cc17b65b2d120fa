package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"matscale/internal/matrix"
)

// Golden SHA-256 digests of outputs whose inputs do not depend on the
// run's seed. A change that alters any of these bytes is a correctness
// change, not a performance one.
const (
	// goldenHostMul is the product Random(1024,1024,1)·Random(1024,1024,2)
	// as little-endian float64 bits.
	goldenHostMul = "537784c83bf10352af3f9a0803b184502237ba5716d6a199ba3d9d888e107865"
	// goldenPaperGrid is the CSV of the paper-grid sweep.
	goldenPaperGrid = "576ada2eacf232656b7ec694fc4a58a7f01a72270412d5a51f24f6f7a3bfeeef"
)

// goldenPool holds the JSON result bytes of the serve pool specs, in
// poolTs order.
var goldenPool = [len(poolTs)]string{
	"483b2e7b619c75723ebfdafed0183db71bbce68fbb1c912a075b01d0e97ca735",
	"fe424bcc419c5e3aefaadd111267e947048b8eb43b481bf6f65b3cd3be1ad524",
	"d28980002a2266c8b9083747176455b90c56639fd718aca2cbf6683d73975591",
	"e32438136cd23f3b74c4dd22c4f5477455e308a3dd51b328457e978fb9019b1f",
}

// digest returns the hex SHA-256 of b.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkDigest fails when b does not hash to want.
func checkDigest(what string, b []byte, want string) error {
	if got := digest(b); got != want {
		return fmt.Errorf("%s: sha256 %s, want %s", what, got, want)
	}
	return nil
}

// matrixBytes encodes m's elements as little-endian float64 bits.
func matrixBytes(m *matrix.Dense) []byte {
	b := make([]byte, 8*len(m.Data))
	for i, v := range m.Data {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// sameBits reports whether a and b have equal shapes and bit-identical
// elements (NaN payloads included).
func sameBits(a, b *matrix.Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}
