/* The blob draw of datagen.make_blob_split: rows of standard normals from
 * numpy's Philox4x64-10 stream, each scaled by spread and shifted by its
 * column's center. It gives the bits of
 *     rng.standard_normal(out=block); block *= spread; block += center
 * and leaves the generator in the state numpy would have left.
 *
 * The stream is numpy's philox.h: a block is the 256-bit counter plus
 * one (carried across words) through 10 rounds under a key bumped
 * between rounds, read one word at a time. The normals are numpy's
 * random_standard_normal: the same ziggurat (Marsaglia & Tsang) with the
 * same tables, branches and order of draws, and glibc's exp and log1p,
 * which numpy calls. Each value is rounded as numpy rounds it (z*spread,
 * then + center) as long as the compiler neither contracts nor
 * reassociates: build with -ffp-contract=off and never with -ffast-math
 * or -Ofast. datagen checks the bits against numpy's before it uses this.
 *
 * A block is drawn in 1 to MAX_PARTS parts, each but the first on its own
 * thread, and the bits do not depend on how many:
 *   - Philox is counter-based, so part p >= 1 starts at the Philox block
 *     where its share of the normals should begin (its share times the
 *     mean words a normal) by setting the counter.
 *   - A normal's first word decides how many words it reads, so two
 *     parses of one stream agree from the first word at which both start
 *     a normal. Part p records where its first RECORD normals start; part
 *     p - 1 draws until it starts a normal at one of those words, and
 *     from that normal on part p's values are the true ones.
 *   - Part 0 writes in place. Part p >= 1 cannot know its true place, so
 *     it writes z*spread from a guessed index plus a margin, never past
 *     where part p + 1 writes; after the joins one pass moves each part's
 *     true values down into place, adding center.
 *   - Whatever no part gave (the margin of the last part, or a part that
 *     failed to meet the next) is drawn on from the stream of the part
 *     before it, at its true place, in the same loop; the stream that
 *     draws the last normal becomes the generator's state.
 * Each part writes only its own range of out and every thread is joined
 * before the call returns.
 *
 * The state is 11 words: counter[4], key[2], buffer[4], buffer_pos, the
 * fields of numpy's Philox state of those names; it is read and written
 * back in place. It returns 0, or 1 having done nothing where parts is 0
 * or above MAX_PARTS.
 */
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <stdatomic.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* The most parts a block is drawn in; datagen.MAX_PARTS is the same. */
#define MAX_PARTS 8
/* How many of its first normals' word positions a part records. */
#define RECORD 256
/* numpy's ziggurat reads 1.0221 words a normal on average (measured over
 * 2e7 normals of the key-5 stream), so the words of n normals are about
 * n * WORDS_PER_10K / 10000, give or take 0.19 sqrt(n) (a variance of
 * 0.036 a normal). A part's guessed index is the words before it over
 * 1.0221, plus GUESS_SLACK and one in GUESS_SHARE: more than five of those
 * deviations at every n, and more than eight from 2^17 normals up. A
 * guess that falls short only costs time: the part is not met, and the
 * part before draws on through it. */
#define WORDS_PER_10K 10221
#define GUESS_SLACK 64
#define GUESS_SHARE 256

/* Blocks made per refill: four independent counters interleaved hide the
 * latency of the 64x64->128-bit multiply. */
#define LANES 4
#define ROUNDS 10
#define MUL0 0xD2E7470EE14C6C93ULL
#define MUL1 0xCA5A826395121157ULL
#define BUMP0 0x9E3779B97F4A7C15ULL
#define BUMP1 0xBB67AE8584CAA73BULL

#define MANTISSA 0x000FFFFFFFFFFFFFULL
static const double ZIGGURAT_R = 3.6541528853610087963519472518;
static const double ZIGGURAT_INV_R = 0.27366123732975827203338247596;
static const double MINUS_ZERO = -0.0;

/* numpy's ziggurat tables ki_double, wi_double and fi_double of
 * numpy/random/src/distributions/ziggurat_constants.h, as exact hex
 * literals, read from numpy 2.4.6's compiled copy. numpy.random is also
 * under the 3-Clause BSD License, copyright Kevin Sheppard.
 *
 * Copyright (c) 2005-2025, NumPy Developers.
 * All rights reserved.
 *
 * Redistribution and use in source and binary forms, with or without
 * modification, are permitted provided that the following conditions are
 * met:
 *
 *     * Redistributions of source code must retain the above copyright
 *        notice, this list of conditions and the following disclaimer.
 *
 *     * Redistributions in binary form must reproduce the above
 *        copyright notice, this list of conditions and the following
 *        disclaimer in the documentation and/or other materials provided
 *        with the distribution.
 *
 *     * Neither the name of the NumPy Developers nor the names of any
 *        contributors may be used to endorse or promote products derived
 *        from this software without specific prior written permission.
 *
 * THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
 * "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
 * LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
 * A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
 * OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
 * SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
 * LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
 * DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
 * THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
 * (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
 * OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
 */
static const uint64_t ki_double[256] = {
    0x000EF33D8025EF6AULL, 0x0000000000000000ULL, 0x000C08BE98FBC6A8ULL,
    0x000DA354FABD8142ULL, 0x000E51F67EC1EEEAULL, 0x000EB255E9D3F77EULL,
    0x000EEF4B817ECAB9ULL, 0x000F19470AFA44AAULL, 0x000F37ED61FFCB18ULL,
    0x000F4F469561255CULL, 0x000F61A5E41BA396ULL, 0x000F707A755396A4ULL,
    0x000F7CB2EC28449AULL, 0x000F86F10C6357D3ULL, 0x000F8FA6578325DEULL,
    0x000F9724C74DD0DAULL, 0x000F9DA907DBF509ULL, 0x000FA360F581FA74ULL,
    0x000FA86FDE5B4BF8ULL, 0x000FACF160D354DCULL, 0x000FB0FB6718B90FULL,
    0x000FB49F8D5374C6ULL, 0x000FB7EC2366FE77ULL, 0x000FBAECE9A1E50EULL,
    0x000FBDAB9D040BEDULL, 0x000FC03060FF6C57ULL, 0x000FC2821037A248ULL,
    0x000FC4A67AE25BD1ULL, 0x000FC6A2977AEE31ULL, 0x000FC87AA92896A4ULL,
    0x000FCA325E4BDE85ULL, 0x000FCBCCE902231AULL, 0x000FCD4D12F839C4ULL,
    0x000FCEB54D8FEC99ULL, 0x000FD007BF1DC930ULL, 0x000FD1464DD6C4E6ULL,
    0x000FD272A8E2F450ULL, 0x000FD38E4FF0C91EULL, 0x000FD49A9990B478ULL,
    0x000FD598B8920F53ULL, 0x000FD689C08E99ECULL, 0x000FD76EA9C8E832ULL,
    0x000FD848547B08E8ULL, 0x000FD9178BAD2C8CULL, 0x000FD9DD07A7ADD2ULL,
    0x000FDA9970105E8CULL, 0x000FDB4D5DC02E20ULL, 0x000FDBF95C5BFCD0ULL,
    0x000FDC9DEBB99A7DULL, 0x000FDD3B8118729DULL, 0x000FDDD288342F90ULL,
    0x000FDE6364369F64ULL, 0x000FDEEE708D514EULL, 0x000FDF7401A6B42EULL,
    0x000FDFF46599ED40ULL, 0x000FE06FE4BC24F2ULL, 0x000FE0E6C225A258ULL,
    0x000FE1593C28B84CULL, 0x000FE1C78CBC3F99ULL, 0x000FE231E9DB1CAAULL,
    0x000FE29885DA1B91ULL, 0x000FE2FB8FB54186ULL, 0x000FE35B33558D4AULL,
    0x000FE3B799D0002AULL, 0x000FE410E99EAD7FULL, 0x000FE46746D47734ULL,
    0x000FE4BAD34C095CULL, 0x000FE50BAED29524ULL, 0x000FE559F74EBC78ULL,
    0x000FE5A5C8E41212ULL, 0x000FE5EF3E138689ULL, 0x000FE6366FD91078ULL,
    0x000FE67B75C6D578ULL, 0x000FE6BE661E11AAULL, 0x000FE6FF55E5F4F2ULL,
    0x000FE73E5900A702ULL, 0x000FE77B823E9E39ULL, 0x000FE7B6E37070A2ULL,
    0x000FE7F08D774243ULL, 0x000FE8289053F08CULL, 0x000FE85EFB35173AULL,
    0x000FE893DC840864ULL, 0x000FE8C741F0CEBCULL, 0x000FE8F9387D4EF6ULL,
    0x000FE929CC879B1DULL, 0x000FE95909D388EAULL, 0x000FE986FB939AA2ULL,
    0x000FE9B3AC714866ULL, 0x000FE9DF2694B6D5ULL, 0x000FEA0973ABE67CULL,
    0x000FEA329CF166A4ULL, 0x000FEA5AAB32952CULL, 0x000FEA81A6D5741AULL,
    0x000FEAA797DE1CF0ULL, 0x000FEACC85F3D920ULL, 0x000FEAF07865E63CULL,
    0x000FEB13762FEC13ULL, 0x000FEB3585FE2A4AULL, 0x000FEB56AE3162B4ULL,
    0x000FEB76F4E284FAULL, 0x000FEB965FE62014ULL, 0x000FEBB4F4CF9D7CULL,
    0x000FEBD2B8F449D0ULL, 0x000FEBEFB16E2E3EULL, 0x000FEC0BE31EBDE8ULL,
    0x000FEC2752B15A15ULL, 0x000FEC42049DAFD3ULL, 0x000FEC5BFD29F196ULL,
    0x000FEC75406CEEF4ULL, 0x000FEC8DD2500CB4ULL, 0x000FECA5B6911F12ULL,
    0x000FECBCF0C427FEULL, 0x000FECD38454FB15ULL, 0x000FECE97488C8B3ULL,
    0x000FECFEC47F91B7ULL, 0x000FED1377358528ULL, 0x000FED278F844903ULL,
    0x000FED3B10242F4CULL, 0x000FED4DFBAD586EULL, 0x000FED605498C3DDULL,
    0x000FED721D414FE8ULL, 0x000FED8357E4A982ULL, 0x000FED9406A42CC8ULL,
    0x000FEDA42B85B704ULL, 0x000FEDB3C8746AB4ULL, 0x000FEDC2DF416652ULL,
    0x000FEDD171A46E52ULL, 0x000FEDDF813C8AD3ULL, 0x000FEDED0F909980ULL,
    0x000FEDFA1E0FD414ULL, 0x000FEE06AE124BC4ULL, 0x000FEE12C0D95A06ULL,
    0x000FEE1E579006E0ULL, 0x000FEE29734B6524ULL, 0x000FEE34150AE4BCULL,
    0x000FEE3E3DB89B3CULL, 0x000FEE47EE2982F4ULL, 0x000FEE51271DB086ULL,
    0x000FEE59E9407F41ULL, 0x000FEE623528B42EULL, 0x000FEE6A0B5897F1ULL,
    0x000FEE716C3E077AULL, 0x000FEE7858327B82ULL, 0x000FEE7ECF7B06BAULL,
    0x000FEE84D2484AB2ULL, 0x000FEE8A60B66343ULL, 0x000FEE8F7ACCC851ULL,
    0x000FEE94207E25DAULL, 0x000FEE9851A829EAULL, 0x000FEE9C0E13485CULL,
    0x000FEE9F557273F4ULL, 0x000FEEA22762CCAEULL, 0x000FEEA4836B42ACULL,
    0x000FEEA668FC2D71ULL, 0x000FEEA7D76ED6FAULL, 0x000FEEA8CE04FA0AULL,
    0x000FEEA94BE8333BULL, 0x000FEEA950296410ULL, 0x000FEEA8D9C0075EULL,
    0x000FEEA7E7897654ULL, 0x000FEEA678481D24ULL, 0x000FEEA48AA29E83ULL,
    0x000FEEA21D22E4DAULL, 0x000FEE9F2E352024ULL, 0x000FEE9BBC26AF2EULL,
    0x000FEE97C524F2E4ULL, 0x000FEE93473C0A3AULL, 0x000FEE8E40557516ULL,
    0x000FEE88AE369C7AULL, 0x000FEE828E7F3DFDULL, 0x000FEE7BDEA7B888ULL,
    0x000FEE749BFF37FFULL, 0x000FEE6CC3A9BD5EULL, 0x000FEE64529E007EULL,
    0x000FEE5B45A32888ULL, 0x000FEE51994E57B6ULL, 0x000FEE474A0006CFULL,
    0x000FEE3C53E12C50ULL, 0x000FEE30B2E02AD8ULL, 0x000FEE2462AD8205ULL,
    0x000FEE175EB83C5AULL, 0x000FEE09A22A1447ULL, 0x000FEDFB27E349CCULL,
    0x000FEDEBEA76216CULL, 0x000FEDDBE422047EULL, 0x000FEDCB0ECE39D3ULL,
    0x000FEDB964042CF4ULL, 0x000FEDA6DCE938C9ULL, 0x000FED937237E98DULL,
    0x000FED7F1C38A836ULL, 0x000FED69D2B9C02BULL, 0x000FED538D06AE00ULL,
    0x000FED3C41DEA422ULL, 0x000FED23E76A2FD8ULL, 0x000FED0A732FE644ULL,
    0x000FECEFDA07FE34ULL, 0x000FECD4100EB7B8ULL, 0x000FECB708956EB4ULL,
    0x000FEC98B61230C1ULL, 0x000FEC790A0DA978ULL, 0x000FEC57F50F31FEULL,
    0x000FEC356686C962ULL, 0x000FEC114CB4B335ULL, 0x000FEBEB948E6FD0ULL,
    0x000FEBC429A0B692ULL, 0x000FEB9AF5EE0CDCULL, 0x000FEB6FE1C98542ULL,
    0x000FEB42D3AD1F9EULL, 0x000FEB13B00B2D4BULL, 0x000FEAE2591A02E9ULL,
    0x000FEAAEAE992257ULL, 0x000FEA788D8EE326ULL, 0x000FEA3FCFFD73E5ULL,
    0x000FEA044C8DD9F6ULL, 0x000FE9C5D62F563BULL, 0x000FE9843BA947A4ULL,
    0x000FE93F471D4728ULL, 0x000FE8F6BD76C5D6ULL, 0x000FE8AA5DC4E8E6ULL,
    0x000FE859E07AB1EAULL, 0x000FE804F690A940ULL, 0x000FE7AB488233C0ULL,
    0x000FE74C751F6AA5ULL, 0x000FE6E8102AA202ULL, 0x000FE67DA0B6ABD8ULL,
    0x000FE60C9F38307EULL, 0x000FE5947338F742ULL, 0x000FE51470977280ULL,
    0x000FE48BD436F458ULL, 0x000FE3F9BFFD1E37ULL, 0x000FE35D35EEB19CULL,
    0x000FE2B5122FE4FEULL, 0x000FE20003995557ULL, 0x000FE13C82788314ULL,
    0x000FE068C4EE67B0ULL, 0x000FDF82B02B71AAULL, 0x000FDE87C57EFEAAULL,
    0x000FDD7509C63BFDULL, 0x000FDC46E529BF13ULL, 0x000FDAF8F82E0282ULL,
    0x000FD985E1B2BA75ULL, 0x000FD7E6EF48CF04ULL, 0x000FD613ADBD650BULL,
    0x000FD40149E2F012ULL, 0x000FD1A1A7B4C7ACULL, 0x000FCEE204761F9EULL,
    0x000FCBA8D85E11B2ULL, 0x000FC7D26ECD2D22ULL, 0x000FC32B2F1E22EDULL,
    0x000FBD6581C0B83AULL, 0x000FB606C4005434ULL, 0x000FAC40582A2874ULL,
    0x000F9E971E014598ULL, 0x000F89FA48A41DFCULL, 0x000F66C5F7F0302CULL,
    0x000F1A5A4B331C4AULL,
};
static const double wi_double[256] = {
    0x1.f493b7815d979p-51, 0x1.b8d0be3fdf6c6p-55, 0x1.250af3c2c5bb4p-54,
    0x1.57cb938443b61p-54, 0x1.801fce82fa70cp-54, 0x1.a230c2e4cd0bcp-54,
    0x1.c004d2f3861f7p-54, 0x1.dac2f5a747274p-54, 0x1.f32482d4cd5c3p-54,
    0x1.04d32278ebbadp-53, 0x1.0f5053b025d43p-53, 0x1.192a697413677p-53,
    0x1.227a28f7a1af5p-53, 0x1.2b52e3863d880p-53, 0x1.33c3fc05791f5p-53,
    0x1.3bd9ec1a2b12fp-53, 0x1.439ef8dff9b55p-53, 0x1.4b1bb363dfea7p-53,
    0x1.52575621ad374p-53, 0x1.59580a707ce96p-53, 0x1.60231cfd97eeap-53,
    0x1.66bd261a37c3dp-53, 0x1.6d2a292000570p-53, 0x1.736dad346f8a6p-53,
    0x1.798ad10b32a77p-53, 0x1.7f845ad46f543p-53, 0x1.855cc53430a77p-53,
    0x1.8b1649e7b769ap-53, 0x1.90b2ea94ecf98p-53, 0x1.96347822c1eeap-53,
    0x1.9b9c98e38c546p-53, 0x1.a0eccdca4a72cp-53, 0x1.a62676d77cd59p-53,
    0x1.ab4ad6e101630p-53, 0x1.b05b16d136c9cp-53, 0x1.b558487427a29p-53,
    0x1.ba4368e529f3ap-53, 0x1.bf1d62abf8232p-53, 0x1.c3e70f9594ef3p-53,
    0x1.c8a13a5323b61p-53, 0x1.cd4c9fe72268bp-53, 0x1.d1e9f0e80b748p-53,
    0x1.d679d29e41f10p-53, 0x1.dafce0023b8c3p-53, 0x1.df73aa9f17653p-53,
    0x1.e3debb5d2edfep-53, 0x1.e83e9337a6f00p-53, 0x1.ec93abdf982cep-53,
    0x1.f0de784f06226p-53, 0x1.f51f654d8f688p-53, 0x1.f956d9e87d7aep-53,
    0x1.fd8537dfa2eacp-53, 0x1.00d56e04234ecp-52, 0x1.02e40f5398f9ap-52,
    0x1.04eea9e16a5fcp-52, 0x1.06f565b72a010p-52, 0x1.08f869071f40bp-52,
    0x1.0af7d84bc6113p-52, 0x1.0cf3d664bcc7fp-52, 0x1.0eec84b16086bp-52,
    0x1.10e20329515eep-52, 0x1.12d4707310fbep-52, 0x1.14c3e9f8e9141p-52,
    0x1.16b08bfc4201ep-52, 0x1.189a71a78da34p-52, 0x1.1a81b51ee6d88p-52,
    0x1.1c666f8f82acbp-52, 0x1.1e48b93e0d42ep-52, 0x1.2028a9940a09fp-52,
    0x1.2206572c4c6e9p-52, 0x1.23e1d7de9c31fp-52, 0x1.25bb40ca96bfbp-52,
    0x1.2792a661dd37fp-52, 0x1.29681c719d71bp-52, 0x1.2b3bb62b82edap-52,
    0x1.2d0d862e1b853p-52, 0x1.2edd9e8cba98ep-52, 0x1.30ac10d6e48d7p-52,
    0x1.3278ee1f4b930p-52, 0x1.3444470265ea1p-52, 0x1.360e2baca52d5p-52,
    0x1.37d6abe05586ap-52, 0x1.399dd6fb2b264p-52, 0x1.3b63bbfb83d03p-52,
    0x1.3d28698561de0p-52, 0x1.3eebede725a83p-52, 0x1.40ae571e09e74p-52,
    0x1.426fb2da6745dp-52, 0x1.44300e83c30a4p-52, 0x1.45ef773cac75dp-52,
    0x1.47adf9e66c336p-52, 0x1.496ba32488f2fp-52, 0x1.4b287f602415dp-52,
    0x1.4ce49acb311dcp-52, 0x1.4ea001638a605p-52, 0x1.505abef5e5562p-52,
    0x1.5214df20a8b5ap-52, 0x1.53ce6d56a664fp-52, 0x1.558774e1bb2c8p-52,
    0x1.574000e555f78p-52, 0x1.58f81c60e8514p-52, 0x1.5aafd23241b59p-52,
    0x1.5c672d17d733dp-52, 0x1.5e1e37b2f8cd3p-52, 0x1.5fd4fc89f5e38p-52,
    0x1.618b860a31fc3p-52, 0x1.6341de8a2b0a2p-52, 0x1.64f8104b7260bp-52,
    0x1.66ae257c99672p-52, 0x1.6864283b13137p-52, 0x1.6a1a22950b2b1p-52,
    0x1.6bd01e8b343bbp-52, 0x1.6d8626128d352p-52, 0x1.6f3c43161f854p-52,
    0x1.70f27f78b68ebp-52, 0x1.72a8e516914c6p-52, 0x1.745f7dc70eedcp-52,
    0x1.7616535e5731fp-52, 0x1.77cd6faeff449p-52, 0x1.7984dc8babd93p-52,
    0x1.7b3ca3c8b1409p-52, 0x1.7cf4cf3db22fbp-52, 0x1.7ead68c73dee7p-52,
    0x1.80667a486ea1fp-52, 0x1.82200dac88676p-52, 0x1.83da2ce899f15p-52,
    0x1.8594e1fd1f5bdp-52, 0x1.875036f7a7ec5p-52, 0x1.890c35f47f72dp-52,
    0x1.8ac8e9205c043p-52, 0x1.8c865aba10c9cp-52, 0x1.8e44951446a27p-52,
    0x1.9003a2973b58fp-52, 0x1.91c38dc288347p-52, 0x1.9384612ef0afcp-52,
    0x1.954627903a28ap-52, 0x1.9708ebb70d5eep-52, 0x1.98ccb892e2a31p-52,
    0x1.9a919933f99bfp-52, 0x1.9c5798cd5d92cp-52, 0x1.9e1ec2b6f7411p-52,
    0x1.9fe7226fad24ap-52, 0x1.a1b0c39f93692p-52, 0x1.a37bb21a2c85bp-52,
    0x1.a547f9e0bbb88p-52, 0x1.a715a724aa9a4p-52, 0x1.a8e4c64a0313dp-52,
    0x1.aab563e9ff108p-52, 0x1.ac878cd5af5cep-52, 0x1.ae5b4e18bb336p-52,
    0x1.b030b4fc3a11ap-52, 0x1.b207cf09a985bp-52, 0x1.b3e0aa0e00c00p-52,
    0x1.b5bb541ce3d03p-52, 0x1.b797db93f8927p-52, 0x1.b9764f1e5f73cp-52,
    0x1.bb56bdb85256ep-52, 0x1.bd3936b2ec0a2p-52, 0x1.bf1dc9b81ae83p-52,
    0x1.c10486cec16a0p-52, 0x1.c2ed7e5f07a2dp-52, 0x1.c4d8c136e0d1cp-52,
    0x1.c6c6608ec8705p-52, 0x1.c8b66e0eba617p-52, 0x1.caa8fbd36a2abp-52,
    0x1.cc9e1c73bd690p-52, 0x1.ce95e3068e037p-52, 0x1.d0906328b8f6ep-52,
    0x1.d28db1037ef20p-52, 0x1.d48de1533c647p-52, 0x1.d691096e7f123p-52,
    0x1.d8973f4d7fba5p-52, 0x1.daa0999206e70p-52, 0x1.dcad2f8fc490ep-52,
    0x1.debd195522e37p-52, 0x1.e0d06fb49d21cp-52, 0x1.e2e74c4ea46f6p-52,
    0x1.e501c99c1d188p-52, 0x1.e72002f97fe25p-52, 0x1.e94214b2abf0ap-52,
    0x1.eb681c0f76f08p-52, 0x1.ed9237610a73ap-52, 0x1.efc086101eca9p-52,
    0x1.f1f328ac25321p-52, 0x1.f42a40fb74d6dp-52, 0x1.f665f20c90168p-52,
    0x1.f8a6604899782p-52, 0x1.faebb187122bfp-52, 0x1.fd360d22fe785p-52,
    0x1.ff859c118f60bp-52, 0x1.00ed447d3a075p-51, 0x1.021a8028fc947p-51,
    0x1.034a983a902abp-51, 0x1.047da4e3ef5c7p-51, 0x1.05b3bf6adb37ep-51,
    0x1.06ed023a72668p-51, 0x1.082988f632e17p-51, 0x1.0969708e8a254p-51,
    0x1.0aacd7571c0c4p-51, 0x1.0bf3dd1eed448p-51, 0x1.0d3ea34aa3d30p-51,
    0x1.0e8d4cf116593p-51, 0x1.0fdffefa69fb6p-51, 0x1.1136e04207041p-51,
    0x1.129219bbb5d35p-51, 0x1.13f1d69c4096dp-51, 0x1.1556448602e3bp-51,
    0x1.16bf93b9deef3p-51, 0x1.182df74d21261p-51, 0x1.19a1a564eebacp-51,
    0x1.1b1ad777f2f8ep-51, 0x1.1c99ca971a694p-51, 0x1.1e1ebfbe4ae39p-51,
    0x1.1fa9fc2e2d901p-51, 0x1.213bc9d04cc81p-51, 0x1.22d477a6fd3eep-51,
    0x1.24745a4ac9c24p-51, 0x1.261bcc77658e0p-51, 0x1.27cb2faa8592ep-51,
    0x1.2982ecd770e78p-51, 0x1.2b437532a0a52p-51, 0x1.2d0d43196db97p-51,
    0x1.2ee0db1a978f5p-51, 0x1.30becd256aeeep-51, 0x1.32a7b5e68a4a3p-51,
    0x1.349c405ae12a3p-51, 0x1.369d27a33a840p-51, 0x1.38ab39256410ap-51,
    0x1.3ac7570ae88fap-51, 0x1.3cf27b31704a6p-51, 0x1.3f2dbaa60f475p-51,
    0x1.417a49cb9e5dap-51, 0x1.43d9815545e94p-51, 0x1.464ce44a73a15p-51,
    0x1.48d62759c43bcp-51, 0x1.4b7739d6b5a27p-51, 0x1.4e3250dcd8902p-51,
    0x1.5109f53e9ac41p-51, 0x1.54011523a7e42p-51, 0x1.571b1a94ae41bp-51,
    0x1.5a5c08b718dd9p-51, 0x1.5dc8a243ad0fep-51, 0x1.61669cf861e4cp-51,
    0x1.653ce7b006aeap-51, 0x1.69540be9fe5c3p-51, 0x1.6db6b8d09e232p-51,
    0x1.72728f05f7a34p-51, 0x1.7799556090673p-51, 0x1.7d42df4d6ce8cp-51,
    0x1.839030529f234p-51, 0x1.8ab0fbfaa7c14p-51, 0x1.92ee0946f4496p-51,
    0x1.9cbee014057abp-51, 0x1.a8fdc7894775ap-51, 0x1.b981f3878fdb1p-51,
    0x1.d3bb48209ad33p-51,
};
static const double fi_double[256] = {
    0x1.0000000000000p+0, 0x1.f446ac979f087p-1, 0x1.eb7545b6ca915p-1,
    0x1.e3f11e027f077p-1, 0x1.dd36fa704de95p-1, 0x1.d70920657bcf2p-1,
    0x1.d144978a119dcp-1, 0x1.cbd33a8a72debp-1, 0x1.c6a5ecea9787fp-1,
    0x1.c1b1cd9eebaeap-1, 0x1.bceeb4ee1dc82p-1, 0x1.b85653a8ff552p-1,
    0x1.b3e3a8234dd10p-1, 0x1.af92a3f6ce8a2p-1, 0x1.ab5fef17a2504p-1,
    0x1.a748bd550c9e1p-1, 0x1.a34aafdf5af0fp-1, 0x1.9f63bee651fd8p-1,
    0x1.9b9228d240681p-1, 0x1.97d4657617ac1p-1, 0x1.94291c21b7a47p-1,
    0x1.908f1bd31714fp-1, 0x1.8d0554fe60aa8p-1, 0x1.898ad48badf02p-1,
    0x1.861ebfc37bcacp-1, 0x1.82c050f56cf6ep-1, 0x1.7f6ed4b20e2cbp-1,
    0x1.7c29a779c6858p-1, 0x1.78f033ca0b0d5p-1, 0x1.75c1f0770d856p-1,
    0x1.729e5f43f6d12p-1, 0x1.6f850baea7aeep-1, 0x1.6c7589e635a89p-1,
    0x1.696f75e513b2ap-1, 0x1.667272a92e323p-1, 0x1.637e298550c18p-1,
    0x1.6092498802665p-1, 0x1.5dae86f4aff6ap-1, 0x1.5ad29acc85c89p-1,
    0x1.57fe4264c8d8fp-1, 0x1.55313f08d9e46p-1, 0x1.526b55a656cd5p-1,
    0x1.4fac4e820b667p-1, 0x1.4cf3f4f494ec0p-1, 0x1.4a42172dc5278p-1,
    0x1.479685fdf5012p-1, 0x1.44f114a493679p-1, 0x1.425198a355fe3p-1,
    0x1.3fb7e99585b82p-1, 0x1.3d23e10af31a3p-1, 0x1.3a955a662cd0ep-1,
    0x1.380c32bda00d5p-1, 0x1.358848bf550e9p-1, 0x1.33097c9703a35p-1,
    0x1.308fafd6438efp-1, 0x1.2e1ac55ea3beep-1, 0x1.2baaa14d7954ap-1,
    0x1.293f28e93cd15p-1, 0x1.26d84290504edp-1, 0x1.2475d5a90db84p-1,
    0x1.2217ca92ff7f2p-1, 0x1.1fbe0a9929620p-1, 0x1.1d687fe549969p-1,
    0x1.1b171573fd111p-1, 0x1.18c9b709b3c50p-1, 0x1.16805128639dap-1,
    0x1.143ad105ea99cp-1, 0x1.11f9248311f38p-1, 0x1.0fbb3a2325913p-1,
    0x1.0d810104142a0p-1, 0x1.0b4a68d70d9aep-1, 0x1.091761d995d81p-1,
    0x1.06e7dccf03c36p-1, 0x1.04bbcafa63f2ep-1, 0x1.02931e18b822ap-1,
    0x1.006dc85b8cac4p-1, 0x1.fc9778c7bbda1p-2, 0x1.f859da7a900cap-2,
    0x1.f4229cb2f7af3p-2, 0x1.eff1a717e8f95p-2, 0x1.ebc6e20bd1f54p-2,
    0x1.e7a236a4ec3c5p-2, 0x1.e3838ea5f9b85p-2, 0x1.df6ad47763a09p-2,
    0x1.db57f320b56b1p-2, 0x1.d74ad6426de33p-2, 0x1.d3436a1021080p-2,
    0x1.cf419b4ae5b6dp-2, 0x1.cb45573c0a848p-2, 0x1.c74e8bb00d7c7p-2,
    0x1.c35d26f1d2cb8p-2, 0x1.bf7117c616a17p-2, 0x1.bb8a4d6716d91p-2,
    0x1.b7a8b7807131bp-2, 0x1.b3cc462b331cap-2, 0x1.aff4e9ea18552p-2,
    0x1.ac2293a5f5a9ep-2, 0x1.a85534aa4d880p-2, 0x1.a48cbea20c04dp-2,
    0x1.a0c923946843ep-2, 0x1.9d0a55e1e93dfp-2, 0x1.995048418c0c6p-2,
    0x1.959aedbe09f93p-2, 0x1.91ea39b33cb17p-2, 0x1.8e3e1fcb9f115p-2,
    0x1.8a9693fde9188p-2, 0x1.86f38a8ac5ab6p-2, 0x1.8354f7faa0dd9p-2,
    0x1.7fbad11b8d911p-2, 0x1.7c250aff414b0p-2, 0x1.78939af9252ebp-2,
    0x1.7506769c7b1edp-2, 0x1.717d93ba9614cp-2, 0x1.6df8e86124caap-2,
    0x1.6a786ad88de21p-2, 0x1.66fc11a25cbe2p-2, 0x1.6383d377be515p-2,
    0x1.600fa7480d2c8p-2, 0x1.5c9f84376c244p-2, 0x1.5933619d6eebep-2,
    0x1.55cb3703d0100p-2, 0x1.5266fc2533bedp-2, 0x1.4f06a8ebf6d92p-2,
    0x1.4baa357109ca2p-2, 0x1.485199fad6ad4p-2, 0x1.44fccefc324fep-2,
    0x1.41abcd1357a19p-2, 0x1.3e5e8d08ed2dbp-2, 0x1.3b1507cf143aep-2,
    0x1.37cf368081379p-2, 0x1.348d125f9d19ep-2, 0x1.314e94d5af62fp-2,
    0x1.2e13b77210766p-2, 0x1.2adc73e963fddp-2, 0x1.27a8c414db11ep-2,
    0x1.2478a1f17de89p-2, 0x1.214c079f7cc9ep-2, 0x1.1e22ef6188116p-2,
    0x1.1afd539c2f050p-2, 0x1.17db2ed5454e8p-2, 0x1.14bc7bb34ee67p-2,
    0x1.11a134fcf2423p-2, 0x1.0e895598709c4p-2, 0x1.0b74d88b242dap-2,
    0x1.0863b8f904336p-2, 0x1.0555f2242e9d9p-2, 0x1.024b7f6c7747ep-2,
    0x1.fe88b89df93c5p-3, 0x1.f88108cb83235p-3, 0x1.f27fe6ce998d2p-3,
    0x1.ec854a4c99c44p-3, 0x1.e6912b2283cddp-3, 0x1.e0a3816457184p-3,
    0x1.dabc455c7900ap-3, 0x1.d4db6f8b2514fp-3, 0x1.cf00f8a5e6fccp-3,
    0x1.c92cd9971df53p-3, 0x1.c35f0b7d89d47p-3, 0x1.bd9787abe18a1p-3,
    0x1.b7d647a8731aap-3, 0x1.b21b452ccd13ap-3, 0x1.ac667a2571807p-3,
    0x1.a6b7e0b19267ep-3, 0x1.a10f7322d7e3dp-3, 0x1.9b6d2bfd2fe5ap-3,
    0x1.95d105f6a7c27p-3, 0x1.903afbf74fa69p-3, 0x1.8aab09192815bp-3,
    0x1.852128a819a38p-3, 0x1.7f9d5621f7175p-3, 0x1.7a1f8d368a323p-3,
    0x1.74a7c9c7ab5a6p-3, 0x1.6f3607e964716p-3, 0x1.69ca43e21f25cp-3,
    0x1.64647a2adf19cp-3, 0x1.5f04a76f883f9p-3, 0x1.59aac88f31d6cp-3,
    0x1.5456da9c86835p-3, 0x1.4f08dade31fc1p-3, 0x1.49c0c6cf5ce2dp-3,
    0x1.447e9c20375d5p-3, 0x1.3f4258b6931aep-3, 0x1.3a0bfaae8d7eep-3,
    0x1.34db805b4ab88p-3, 0x1.2fb0e847c2a65p-3, 0x1.2a8c3137a071ap-3,
    0x1.256d5a2835eb7p-3, 0x1.2054625183c34p-3, 0x1.1b41492757d42p-3,
    0x1.16340e5a82d63p-3, 0x1.112cb1da26eb9p-3, 0x1.0c2b33d5209bap-3,
    0x1.072f94bb8bf85p-3, 0x1.0239d54067d2ap-3, 0x1.fa93ecb6b222cp-4,
    0x1.f0bff29520e1cp-4, 0x1.e6f7bf29aa54bp-4, 0x1.dd3b56176e88fp-4,
    0x1.d38abb9bd91e5p-4, 0x1.c9e5f493b740ap-4, 0x1.c04d0680b1015p-4,
    0x1.b6bff78f2e233p-4, 0x1.ad3ece9caf633p-4, 0x1.a3c9933ea6286p-4,
    0x1.9a604dc9d5b19p-4, 0x1.9103075a4a0abp-4, 0x1.87b1c9dbf2852p-4,
    0x1.7e6ca013eefd6p-4, 0x1.753395aaa1176p-4, 0x1.6c06b73694a4cp-4,
    0x1.62e6124854d18p-4, 0x1.59d1b577466a4p-4, 0x1.50c9b06fa2baep-4,
    0x1.47ce1401b2213p-4, 0x1.3edef23269a86p-4, 0x1.35fc5e4d93e70p-4,
    0x1.2d266cf9b3111p-4, 0x1.245d344dd0d91p-4, 0x1.1ba0cbe97897dp-4,
    0x1.12f14d0f2179dp-4, 0x1.0a4ed2c159625p-4, 0x1.01b979e30e497p-4,
    0x1.f262c2b6c6e35p-5, 0x1.e16d547b25181p-5, 0x1.d092efeadf162p-5,
    0x1.bfd3e0f282a2cp-5, 0x1.af30790385f70p-5, 0x1.9ea90f9295563p-5,
    0x1.8e3e02a68b5abp-5, 0x1.7defb77af271ep-5, 0x1.6dbe9b398d064p-5,
    0x1.5dab23cf2add4p-5, 0x1.4db5d0e11275dp-5, 0x1.3ddf2ce98eecbp-5,
    0x1.2e27ce83df497p-5, 0x1.1e9059f1f6abcp-5, 0x1.0f1982e968011p-5,
    0x1.ff881d718a5c4p-6, 0x1.e121adb828c75p-6, 0x1.c301983cd091ap-6,
    0x1.a529f4e22ebf8p-6, 0x1.879d1b600c10ap-6, 0x1.6a5daf40bbf82p-6,
    0x1.4d6eaf2fbb064p-6, 0x1.30d388dab5e13p-6, 0x1.1490334603012p-6,
    0x1.f152a4f72dd49p-7, 0x1.ba48d274f8facp-7, 0x1.841040d8da478p-7,
    0x1.4eb96421acfe0p-7, 0x1.1a59229952f92p-7, 0x1.ce160f8ec6837p-8,
    0x1.69ea8d90cb85dp-8, 0x1.08a1f03b0b1fdp-8, 0x1.55f9f43c1b067p-9,
    0x1.4a605b6b9f70fp-10,
};

typedef struct {
    uint64_t ctr[4];          /* the counter of the last block made */
    uint64_t key[2];
    uint64_t buf[4 * LANES];  /* the words made; buf[pos..len) are unread */
    size_t pos, len;
    uint64_t base;            /* the word position of buf[0] */
} stream;

static inline uint64_t mulhilo(uint64_t a, uint64_t b, uint64_t *hi)
{
#ifdef __SIZEOF_INT128__
    unsigned __int128 p = (unsigned __int128)a * b;
    *hi = (uint64_t)(p >> 64);
    return (uint64_t)p;
#else
    uint64_t a0 = a & 0xFFFFFFFFu, a1 = a >> 32, b0 = b & 0xFFFFFFFFu, b1 = b >> 32;
    uint64_t p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0, p11 = a1 * b1;
    uint64_t mid = (p00 >> 32) + (p01 & 0xFFFFFFFFu) + (p10 & 0xFFFFFFFFu);
    *hi = p11 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
    return a * b;
#endif
}

/* ctr + by, carried across words; by = -1 steps back one. */
static void add_counter(uint64_t ctr[4], uint64_t by, int negative)
{
    for (int i = 0; i < 4 && by; i++) {
        uint64_t old = ctr[i];
        ctr[i] = negative ? old - by : old + by;
        by = negative ? old < by : ctr[i] < old;
    }
}

/* The next LANES blocks into buf: counters ctr+1 .. ctr+LANES, each
 * incremented as numpy does (carry into the next word on wrap). */
static void refill(stream *s)
{
    uint64_t x[LANES][4];
    for (int l = 0; l < LANES; l++) {
        for (int i = 0; i < 4 && ++s->ctr[i] == 0; i++)
            ;
        memcpy(x[l], s->ctr, sizeof x[l]);
    }
    uint64_t k0 = s->key[0], k1 = s->key[1];
    for (int round = 0; round < ROUNDS; round++) {
        if (round) {
            k0 += BUMP0;
            k1 += BUMP1;
        }
        for (int l = 0; l < LANES; l++) {
            uint64_t hi0, hi1;
            uint64_t lo0 = mulhilo(MUL0, x[l][0], &hi0);
            uint64_t lo1 = mulhilo(MUL1, x[l][2], &hi1);
            x[l][0] = hi1 ^ x[l][1] ^ k0;
            x[l][1] = lo1;
            x[l][2] = hi0 ^ x[l][3] ^ k1;
            x[l][3] = lo0;
        }
    }
    memcpy(s->buf, x, sizeof x);
    s->base += s->len;
    s->pos = 0;
    s->len = 4 * LANES;
}

static inline uint64_t next_u64(stream *s)
{
    if (s->pos == s->len)
        refill(s);
    return s->buf[s->pos++];
}

static inline double next_double(stream *s)
{
    return (double)(next_u64(s) >> 11) * (1.0 / 9007199254740992.0);
}

/* x with its sign bit flipped where sign has bit 63 set: numpy's x = -x,
 * without a branch. */
static inline double flip(double x, uint64_t sign)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    bits ^= sign;
    memcpy(&x, &bits, sizeof x);
    return x;
}

static inline double standard_normal(stream *s)
{
    for (;;) {
        uint64_t r = next_u64(s);
        int idx = r & 0xff;
        r >>= 8;
        uint64_t rabs = (r >> 1) & MANTISSA;
        double x = flip((double)(int64_t)rabs * wi_double[idx], r << 63);
        if (rabs < ki_double[idx])
            return x;
        if (idx == 0) {
            for (;;) {
                double xx = -ZIGGURAT_INV_R * log1p(-next_double(s));
                double yy = -log1p(-next_double(s));
                if (yy + yy > xx * xx)
                    return flip(ZIGGURAT_R + xx, (rabs >> 8) << 63);
            }
        }
        if ((fi_double[idx - 1] - fi_double[idx]) * next_double(s) + fi_double[idx] < exp(-0.5 * x * x))
            return x;
    }
}

/* How a part's draw ended: it wrote all its room (FULL), it reached the
 * first word of next's normal number met (MET), or it passed every word
 * next recorded (PASSED). */
enum { GO_ON, FULL, MET, PASSED };

typedef struct part {
    stream s;
    uint64_t start;           /* the word position of its first normal */
    double *out;              /* where its first value goes */
    size_t room, made;        /* how many values it may write there, and wrote */
    const double *center;     /* NULL where out is not the values' true place */
    size_t col, cols;         /* the column of out[0], and the block's */
    double spread;
    struct part *next;        /* the part it stops at, or NULL */
    int status;
    size_t met;
    uint64_t rec[RECORD];     /* the word positions of its first normals */
    atomic_size_t recorded;   /* how many of rec are written */
    atomic_int done;          /* its draw has ended */
} part;

/* Whether the normal that starts at word at is next's normal number
 * *cursor (MET), starts past every word next records (PASSED), or
 * neither (GO_ON); it waits while next has yet to record that far. */
static int meet(part *next, uint64_t at, size_t *cursor)
{
    for (;;) {
        int done = atomic_load_explicit(&next->done, memory_order_acquire);
        size_t recorded = atomic_load_explicit(&next->recorded, memory_order_acquire);
        while (*cursor < recorded && next->rec[*cursor] < at)
            ++*cursor;
        if (*cursor < recorded)
            return next->rec[*cursor] == at ? MET : GO_ON;
        if (done || recorded == RECORD)
            return PASSED;
        sched_yield();
    }
}

/* Draw part arg's normals until it is FULL, MET or PASSED (its status),
 * then mark it done. Each is z*spread + center[j]; a part whose values
 * are not in their true place adds -0.0, which changes no value, with j
 * held at 0. */
static void *draw(void *arg)
{
    part *p = arg;
    stream s = p->s;
    double *out = p->out, spread = p->spread;
    const double *center = p->center ? p->center : &MINUS_ZERO;
    size_t made = 0, room = p->room, cols = p->center ? p->cols : 1, j = p->col, cursor = 0;
    uint64_t from = p->next ? p->next->start : UINT64_MAX;
    int status;
    for (;;) {
        uint64_t at = s.base + s.pos;
        if (at >= from && (status = meet(p->next, at, &cursor)) != GO_ON)
            break;
        if (made == room) {
            status = FULL;
            break;
        }
        if (made < RECORD) {
            p->rec[made] = at;
            atomic_store_explicit(&p->recorded, made + 1, memory_order_release);
        }
        double t = standard_normal(&s) * spread;
        out[made++] = t + center[j];
        j = j + 1 == cols ? 0 : j + 1;
    }
    p->s = s;
    p->made = made;
    p->status = status;
    p->met = cursor;
    atomic_store_explicit(&p->done, 1, memory_order_release);
    return NULL;
}

/* to[i] = from[i] + center[(col + i) % cols] for i < n, a row's run at a
 * time; to <= from. */
static void place(double *to, const double *from, size_t n, const double *center, size_t col, size_t cols)
{
    while (n) {
        size_t run = cols - col < n ? cols - col : n;
        for (size_t i = 0; i < run; i++)
            to[i] = from[i] + center[col + i];
        to += run;
        from += run;
        n -= run;
        col = 0;
    }
}

static void init_part(part *p, const stream *s, uint64_t start, double *out, size_t room,
                      const double *center, size_t col, size_t cols, double spread, part *next)
{
    p->s = *s;
    p->start = start;
    p->out = out;
    p->room = room;
    p->made = 0;
    p->center = center;
    p->col = col;
    p->cols = cols;
    p->spread = spread;
    p->next = next;
    p->status = GO_ON;
    p->met = 0;
    atomic_init(&p->recorded, 0);
    atomic_init(&p->done, 0);
}

/* Set up parts of n values at out, the first from the stream first. Part
 * p starts at the first word of Philox block ctr + 1 + skip (word
 * 4 - buffer_pos + 4 skip) near its share of the words, and writes from
 * the index that word's normal should have, plus a margin, up to where
 * part p + 1 writes. */
static void plan(part *all, size_t parts, const stream *first, double *out, size_t n, size_t cols,
                 double spread, const double *center)
{
    size_t guess[MAX_PARTS + 1];
    guess[0] = 0;
    guess[parts] = n;
    init_part(&all[0], first, 0, out, 0, center, 0, cols, spread, NULL);
    for (size_t p = 1; p < parts; p++) {
        uint64_t word = (uint64_t)(n / parts * p) * WORDS_PER_10K / 10000;
        uint64_t skip = word > 4 - first->pos ? (word - (4 - first->pos) + 3) / 4 : 0;
        stream s = *first;
        add_counter(s.ctr, skip, 0);
        s.pos = s.len = 0;
        s.base = 4 - first->pos + 4 * skip;
        uint64_t index = s.base * 10000 / WORDS_PER_10K;
        uint64_t at = index + GUESS_SLACK + index / GUESS_SHARE;
        guess[p] = at < n ? at : n;
        if (guess[p] < guess[p - 1])
            guess[p] = guess[p - 1];
        init_part(&all[p], &s, s.base, out + guess[p], 0, NULL, 0, cols, spread, NULL);
    }
    for (size_t p = 0; p < parts; p++) {
        all[p].room = guess[p + 1] - guess[p];
        all[p].next = p + 1 < parts ? &all[p + 1] : NULL;
    }
}

/* Run every part, each but the first on a thread, started last to first
 * so the part a part waits for has started; one whose thread cannot
 * start runs here. All are joined on return. */
static void run(part *all, size_t parts)
{
    pthread_t thread[MAX_PARTS];
    int started[MAX_PARTS] = {0};
    for (size_t p = parts - 1; p > 0; p--) {
        started[p] = pthread_create(&thread[p], NULL, draw, &all[p]) == 0;
        if (!started[p])
            draw(&all[p]);
    }
    draw(&all[0]);
    for (size_t p = 1; p < parts; p++)
        if (started[p])
            pthread_join(thread[p], NULL);
}

/* After run: in order, move each part that was met into place from the
 * normal it was met at; where a part was not met (or its values were
 * written over), draw on from the last stream at the true place, in
 * tail. The stream that drew the last of the n values. */
static stream *assemble(part *all, size_t parts, part *tail, double *out, size_t n)
{
    size_t cols = all[0].cols, x = all[0].made;  /* the values in place */
    const double *center = all[0].center;
    part *last = &all[0];
    for (size_t q = 1; x < n;) {
        if (last->status == MET) {
            part *p = &all[q++];
            size_t from = (size_t)(p->out - out) + last->met;
            if (x <= from) {
                place(out + x, p->out + last->met, p->made - last->met, center, x % cols, cols);
                x += p->made - last->met;
                last = p;
                continue;
            }
        } else if (last->status == PASSED) {
            q++;
        }
        stream s = last->s;
        init_part(tail, &s, 0, out + x, n - x, center, x % cols, cols, all[0].spread, q < parts ? &all[q] : NULL);
        draw(tail);
        x += tail->made;
        last = tail;
    }
    return &last->s;
}

int fednoise_normal_fill(uint64_t *restrict state, double *restrict out, size_t rows, size_t cols,
                         double spread, const double *restrict center, size_t parts)
{
    if (parts == 0 || parts > MAX_PARTS)
        return 1;
    stream first;
    memcpy(first.ctr, state, sizeof first.ctr);
    memcpy(first.key, state + 4, sizeof first.key);
    memcpy(first.buf, state + 6, 4 * sizeof first.buf[0]);
    first.pos = state[10];
    first.len = 4;
    first.base = -(uint64_t)first.pos;  /* the next word is word 0 */
    part all[MAX_PARTS], tail;
    plan(all, parts, &first, out, rows * cols, cols, spread, center);
    run(all, parts);
    stream *s = assemble(all, parts, &tail, out, rows * cols);
    if (s->len == 4) {  /* no block made: only the position moved */
        state[10] = s->pos;
        return 0;
    }
    /* The block of the last word read becomes numpy's buffer; the blocks
     * made after it were never read, so the counter steps back over them. */
    size_t block = (s->pos - 1) / 4;
    add_counter(s->ctr, LANES - 1 - block, 1);
    memcpy(state, s->ctr, sizeof s->ctr);
    memcpy(state + 6, s->buf + 4 * block, 4 * sizeof s->buf[0]);
    state[10] = s->pos - 4 * block;
    return 0;
}
