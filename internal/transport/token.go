package transport

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strings"
)

// Connect tokens: a stateless re-admission credential derived from the
// federation's shared frame-auth key. The PS mints one per client at
// admission (any holder of the key can mint it — that is the point: a
// restarted PS recomputes rather than remembers) and a reconnecting
// client presents it in its hello Text. Verification is a single HMAC
// and a constant-time compare; no lookup table of issued tokens exists
// to exhaust or to lose across a PS restart.

// connectTokenDomain separates token MACs from frame MACs computed
// with the same key.
const connectTokenDomain = "fedms/connect-token/v1"

// connectTokenBytes is the truncated MAC length carried in the hello.
// 128 bits: far beyond brute-force at accept-rate-limited speeds while
// keeping the hello body small.
const connectTokenBytes = 16

// HelloSeedFlag marks a client's introductory hello, whose model seed
// follows in a second TypeHello frame; a PS rejects a hello without it.
// The flag lives in the high bit of Flag, leaving the low bits for the
// client id; it keeps the first frame on a new connection tiny so the
// prefilter's hello-phase body cap can be aggressive.
const HelloSeedFlag = 1 << 31

// HelloTokenPrefix introduces a connect token inside a hello Text.
const HelloTokenPrefix = "tok:"

// ConnectToken mints the re-admission token for a client under the
// shared key: hex(HMAC-SHA256(key, domain || seed || id)[:16]). The
// seed binds the token to one federation run, so tokens from an old
// experiment cannot be replayed into a new one that reuses the key.
func ConnectToken(key []byte, seed uint64, clientID int) string {
	mac := hmac.New(sha256.New, key)
	mac.Write([]byte(connectTokenDomain))
	var num [12]byte
	binary.LittleEndian.PutUint64(num[:8], seed)
	binary.LittleEndian.PutUint32(num[8:], uint32(clientID))
	mac.Write(num[:])
	return hex.EncodeToString(mac.Sum(nil)[:connectTokenBytes])
}

// VerifyConnectToken checks a presented token against the one the key
// would mint for this client, in constant time.
func VerifyConnectToken(key []byte, seed uint64, clientID int, token string) bool {
	want := ConnectToken(key, seed, clientID)
	return hmac.Equal([]byte(want), []byte(token))
}

// HelloInfo is the structured content of a hello frame's Text: a
// comma-joined list of fields, each either the codec advertisement or
// a prefixed connect token. Unknown fields are ignored so old servers
// tolerate new clients and vice versa.
type HelloInfo struct {
	// CodecV2 advertises that the client accepts encoded (v2) downlink
	// frames.
	CodecV2 bool
	// Token is the presented connect token (hex), empty if none.
	Token string
}

// ParseHelloText decodes a hello Text into its fields.
func ParseHelloText(s string) HelloInfo {
	var h HelloInfo
	for _, f := range strings.Split(s, ",") {
		switch {
		case f == HelloCodecV2:
			h.CodecV2 = true
		case strings.HasPrefix(f, HelloTokenPrefix):
			h.Token = f[len(HelloTokenPrefix):]
		}
	}
	return h
}

// Text encodes the fields back into a hello Text.
func (h HelloInfo) Text() string {
	var fields []string
	if h.CodecV2 {
		fields = append(fields, HelloCodecV2)
	}
	if h.Token != "" {
		fields = append(fields, HelloTokenPrefix+h.Token)
	}
	return strings.Join(fields, ",")
}
