package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/cert"
	"repro/internal/cnf"
)

// Binary entry layout (all integers little-endian):
//
//	[0:4]   magic "DQST"
//	[4:6]   format version (currently 1)
//	[6:8]   flags (bit 0: entry carries a certificate)
//	[8:12]  payload length in bytes
//	[12:16] reserved (zero)
//	[16:…]  payload (see below)
//	[-4:]   CRC-32C (Castagnoli) over header and payload
//
// Payload:
//
//	key            raw 32-byte canonical formula hash
//	verdict        uint8 (1 = SAT, 2 = UNSAT)
//	engine         uint16 length + bytes
//	conflicts      int64
//	decisions      int64
//	solve time     int64 (milliseconds)
//	created        int64 (unix seconds)
//	certificate    (only with flag bit 0) uint32 function count, then the
//	               existential variable of each function as int32 in
//	               ascending order, then uint32 length + ASCII-AIGER (aag)
//	               bytes holding the function cones, one output per
//	               function in the same order
//
// The checksum makes torn writes and bit flips detectable; the version field
// makes the format evolvable (a reader rejects versions it does not speak,
// without quarantining the file — it is not damaged, just newer). The
// write→read→write fixpoint is tested in the style of gnark's groth16
// marshal round-trip suite.
const (
	entryMagic   = "DQST"
	entryVersion = 1

	flagHasCert = 1 << 0

	headerLen = 16
	// minEntryLen is the smallest structurally possible file: header, raw
	// key, verdict byte, empty engine, four int64 meters, checksum.
	minEntryLen = headerLen + keyRawLen + 1 + 2 + 4*8 + 4
)

// keyRawLen is the byte length of a decoded canonical hash (SHA-256).
const keyRawLen = 32

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Verdict is the persisted answer of an entry. Only definitive verdicts are
// ever stored: Unknown depends on the budget that produced it and Error on
// the failure that did, so neither survives a restart.
type Verdict uint8

const (
	// VerdictSat marks a satisfiable instance.
	VerdictSat Verdict = 1
	// VerdictUnsat marks an unsatisfiable instance.
	VerdictUnsat Verdict = 2
)

func (v Verdict) String() string {
	switch v {
	case VerdictSat:
		return "SAT"
	case VerdictUnsat:
		return "UNSAT"
	default:
		return fmt.Sprintf("Verdict(%d)", uint8(v))
	}
}

// Entry is one persisted result: the verdict for the formula with the given
// canonical hash, solver accounting, and — for SAT verdicts of
// certificate-producing engines — the Skolem certificate that makes the
// verdict independently re-checkable on load.
type Entry struct {
	// Key is the hex-encoded canonical formula hash (problem.CanonicalFormulaHash).
	Key string
	// Verdict is the persisted answer (SAT or UNSAT only).
	Verdict Verdict
	// Engine names the engine that produced the verdict.
	Engine string
	// Conflicts and Decisions are the CDCL totals of the producing solve.
	Conflicts int64
	Decisions int64
	// SolveMS is the wall-clock solve time of the producing run.
	SolveMS int64
	// CreatedUnix is the write time (unix seconds), the input to age-based
	// eviction.
	CreatedUnix int64
	// Cert is the Skolem certificate backing a SAT verdict; nil when the
	// producing engine emitted none (UNSAT always, SAT without -certify).
	Cert *cert.Certificate
}

// Errors distinguishing why an entry failed to decode.
var (
	// ErrCorrupt marks an entry whose bytes fail structural or checksum
	// validation — the read path quarantines such files.
	ErrCorrupt = errors.New("store: corrupt entry")
	// ErrVersion marks an entry written by a different format version — not
	// damaged, just unreadable by this build; it is skipped, not quarantined.
	ErrVersion = errors.New("store: unsupported entry version")
)

// MarshalBinary encodes the entry in the versioned checksummed format.
func (e *Entry) MarshalBinary() ([]byte, error) {
	rawKey, err := hex.DecodeString(e.Key)
	if err != nil || len(rawKey) != keyRawLen {
		return nil, fmt.Errorf("store: key %q is not a %d-byte hex hash", e.Key, keyRawLen)
	}
	if e.Verdict != VerdictSat && e.Verdict != VerdictUnsat {
		return nil, fmt.Errorf("store: refusing to persist non-definitive verdict %v", e.Verdict)
	}
	if len(e.Engine) > 0xffff {
		return nil, fmt.Errorf("store: engine name %d bytes long", len(e.Engine))
	}

	var payload bytes.Buffer
	payload.Write(rawKey)
	payload.WriteByte(byte(e.Verdict))
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], uint16(len(e.Engine)))
	payload.Write(u16[:])
	payload.WriteString(e.Engine)
	var u64 [8]byte
	for _, v := range []int64{e.Conflicts, e.Decisions, e.SolveMS, e.CreatedUnix} {
		binary.LittleEndian.PutUint64(u64[:], uint64(v))
		payload.Write(u64[:])
	}

	flags := uint16(0)
	if e.Cert != nil {
		flags |= flagHasCert
		if err := marshalCert(&payload, e.Cert); err != nil {
			return nil, err
		}
	}

	out := make([]byte, 0, headerLen+payload.Len()+4)
	out = append(out, entryMagic...)
	out = binary.LittleEndian.AppendUint16(out, entryVersion)
	out = binary.LittleEndian.AppendUint16(out, flags)
	out = binary.LittleEndian.AppendUint32(out, uint32(payload.Len()))
	out = binary.LittleEndian.AppendUint32(out, 0) // reserved
	out = append(out, payload.Bytes()...)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
	return out, nil
}

// marshalCert appends the certificate section: the function count, the
// variables, and the cone section's length and bytes (cert.Cones).
func marshalCert(w *bytes.Buffer, c *cert.Certificate) error {
	vars, cones, err := c.Cones()
	if err != nil {
		return fmt.Errorf("store: serializing certificate: %w", err)
	}
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(vars)))
	w.Write(u32[:])
	for _, v := range vars {
		binary.LittleEndian.PutUint32(u32[:], uint32(int32(v)))
		w.Write(u32[:])
	}
	binary.LittleEndian.PutUint32(u32[:], uint32(len(cones)))
	w.Write(u32[:])
	w.Write(cones)
	return nil
}

// UnmarshalBinary decodes an entry, rejecting short reads, bad magic, bad
// checksums, and trailing garbage as ErrCorrupt and unknown format versions
// as ErrVersion.
func (e *Entry) UnmarshalBinary(data []byte) error {
	if len(data) < minEntryLen {
		return fmt.Errorf("%w: %d bytes, want at least %d (short read)", ErrCorrupt, len(data), minEntryLen)
	}
	if string(data[0:4]) != entryMagic {
		return fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[0:4])
	}
	// The checksum is validated before the version so a bit flip inside the
	// version field reads as corruption, not as a future format.
	sum := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(data[:len(data)-4], crcTable); got != sum {
		return fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrCorrupt, sum, got)
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != entryVersion {
		return fmt.Errorf("%w: version %d (this build speaks %d)", ErrVersion, v, entryVersion)
	}
	flags := binary.LittleEndian.Uint16(data[6:8])
	payloadLen := binary.LittleEndian.Uint32(data[8:12])
	if int(payloadLen) != len(data)-headerLen-4 {
		return fmt.Errorf("%w: payload length %d disagrees with file size %d", ErrCorrupt, payloadLen, len(data))
	}

	r := bytes.NewReader(data[headerLen : len(data)-4])
	rawKey := make([]byte, keyRawLen)
	if _, err := io.ReadFull(r, rawKey); err != nil {
		return fmt.Errorf("%w: truncated key", ErrCorrupt)
	}
	e.Key = hex.EncodeToString(rawKey)

	var verdict [1]byte
	if _, err := io.ReadFull(r, verdict[:]); err != nil {
		return fmt.Errorf("%w: truncated verdict", ErrCorrupt)
	}
	e.Verdict = Verdict(verdict[0])
	if e.Verdict != VerdictSat && e.Verdict != VerdictUnsat {
		return fmt.Errorf("%w: verdict byte %d", ErrCorrupt, verdict[0])
	}

	var u16 [2]byte
	if _, err := io.ReadFull(r, u16[:]); err != nil {
		return fmt.Errorf("%w: truncated engine length", ErrCorrupt)
	}
	engine := make([]byte, binary.LittleEndian.Uint16(u16[:]))
	if _, err := io.ReadFull(r, engine); err != nil {
		return fmt.Errorf("%w: truncated engine name", ErrCorrupt)
	}
	e.Engine = string(engine)

	var u64 [8]byte
	for _, dst := range []*int64{&e.Conflicts, &e.Decisions, &e.SolveMS, &e.CreatedUnix} {
		if _, err := io.ReadFull(r, u64[:]); err != nil {
			return fmt.Errorf("%w: truncated meters", ErrCorrupt)
		}
		*dst = int64(binary.LittleEndian.Uint64(u64[:]))
	}

	e.Cert = nil
	if flags&flagHasCert != 0 {
		c, err := unmarshalCert(r)
		if err != nil {
			return err
		}
		e.Cert = c
	}
	if r.Len() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.Len())
	}
	return nil
}

func unmarshalCert(r *bytes.Reader) (*cert.Certificate, error) {
	var u32 [4]byte
	if _, err := io.ReadFull(r, u32[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated certificate function count", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint32(u32[:])
	if int(n) > r.Len()/4 {
		return nil, fmt.Errorf("%w: certificate claims %d functions in %d bytes", ErrCorrupt, n, r.Len())
	}
	vars := make([]cnf.Var, n)
	for i := range vars {
		if _, err := io.ReadFull(r, u32[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated certificate variable list", ErrCorrupt)
		}
		vars[i] = cnf.Var(int32(binary.LittleEndian.Uint32(u32[:])))
	}
	if _, err := io.ReadFull(r, u32[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated certificate blob length", ErrCorrupt)
	}
	blobLen := binary.LittleEndian.Uint32(u32[:])
	if int(blobLen) != r.Len() {
		return nil, fmt.Errorf("%w: certificate blob length %d, %d bytes remain", ErrCorrupt, blobLen, r.Len())
	}
	blob := make([]byte, blobLen)
	if _, err := io.ReadFull(r, blob); err != nil {
		return nil, fmt.Errorf("%w: truncated certificate blob", ErrCorrupt)
	}
	c, err := cert.FromCones(vars, blob)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return c, nil
}
